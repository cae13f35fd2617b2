package platformtest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/dataflow"
	"graphalytics/internal/platform/graphdb"
	"graphalytics/internal/platform/mapreduce"
	"graphalytics/internal/platform/pregel"
)

// cdGolden pins a SHA-256 of the %v rendering of the CD labels on each
// conformance graph, at the default CD parameters and at a non-default
// preference and attenuation. Every engine at every worker count and
// the sequential reference must reproduce these digests: the vote
// tally is shared code, and any change to its ordering or arithmetic
// that moves a single label shows up here.
var cdGolden = map[string][2]string{
	"rand-directed":            {"7228fd24e6993501a56eb6e6fdd66efef5f4c3fe4a302b07a8429bb32a59471f", "60177dc7de6b6b89954eda60a3873756144baa83f5ba11625e50ed3ed55ad0bf"},
	"rand-undirected":          {"c97c6c026da483abccc6377b9764b682564bcea2467c5fedbb6f6df9ba8b590d", "21f1dc78d5e79d3ffded599ef3159ddecdaf3aed6c2f2d2dca2a0f22d25fa49a"},
	"rand-sparse-disconnected": {"336ae4cd7b2415b3e958d3aae15561105f7f081550d19b5f6560e55f5026ebb3", "f6e24e9dafcc55c8c8f1c948b362d26ccfafc072711766b0aac967fb5ca4968c"},
	"rand-weighted":            {"63ce922ffe483bf657a7374145e4b8d5eb5f0b5b3e8d86e49d31167c2bd49bd8", "7a90d8a3bb95696ec25c9a584e86edcdcae02b05c1a0d144d2fd7cd3d381fea3"},
	"tiny":                     {"3bccc3f720a270e02dc492d4d3ad3e788e2c9e803df383d12bfaa7e9597bac3c", "6859cb141ffa8c61ac78f01026aa4f411be2a98bc6a790dd229ade1889f5b638"},
	"social":                   {"9f791d677d36d8d2fd3e9abb3a4d24d58acb73e80a2dd312d97e83f020fcf5b8", "9f791d677d36d8d2fd3e9abb3a4d24d58acb73e80a2dd312d97e83f020fcf5b8"},
}

// cdGoldenParams are the two CD parameter sets cdGolden is indexed by.
var cdGoldenParams = [2]algo.Params{
	{},
	{CDIterations: 7, CDDelta: 0.125, CDPreference: 0.7},
}

func cdDigest(out algo.CDOutput) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%v", []int64(out))))
	return hex.EncodeToString(sum[:])
}

// TestCDGoldenAllEngines runs CD on every conformance graph through the
// reference and all four engines (pregel, mapreduce and dataflow at 1
// and 2 workers; graphdb is single-threaded) and compares each output
// digest with cdGolden.
func TestCDGoldenAllEngines(t *testing.T) {
	engines := []struct {
		name string
		p    platform.Platform
	}{
		{"pregel/1", pregel.New(pregel.Options{Workers: 1})},
		{"pregel/2", pregel.New(pregel.Options{Workers: 2})},
		{"mapreduce/1", mapreduce.New(mapreduce.Options{Workers: 1, RoundOverhead: -1})},
		{"mapreduce/2", mapreduce.New(mapreduce.Options{Workers: 2, RoundOverhead: -1})},
		{"dataflow/1", dataflow.New(dataflow.Options{Parts: 1})},
		{"dataflow/2", dataflow.New(dataflow.Options{Parts: 2})},
		{"graphdb", graphdb.New(graphdb.Options{})},
	}
	for _, g := range Graphs(t) {
		want, ok := cdGolden[g.Name()]
		if !ok {
			t.Fatalf("no CD golden digest for conformance graph %s", g.Name())
		}
		for pi, raw := range cdGoldenParams {
			params := raw.WithDefaults(g.NumVertices())
			if got := cdDigest(algo.RunCD(g, params)); got != want[pi] {
				t.Errorf("%s params %d: reference digest %s, want %s", g.Name(), pi, got, want[pi])
			}
			for _, e := range engines {
				loaded, err := e.p.LoadGraph(g)
				if err != nil {
					t.Fatalf("%s %s: LoadGraph: %v", e.name, g.Name(), err)
				}
				res, err := loaded.Run(context.Background(), algo.CD, params)
				loaded.Close()
				if err != nil {
					t.Fatalf("%s %s params %d: %v", e.name, g.Name(), pi, err)
				}
				if got := cdDigest(res.Output.(algo.CDOutput)); got != want[pi] {
					t.Errorf("%s %s params %d: digest %s, want %s", e.name, g.Name(), pi, got, want[pi])
				}
			}
		}
	}
}
