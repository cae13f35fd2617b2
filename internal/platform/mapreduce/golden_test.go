package mapreduce

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/workload"
)

// goldenGraph is the seeded weighted Datagen graph the golden test and
// BenchmarkClusterRun share.
func goldenGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	g, err := datagen.Generate(datagen.Config{Persons: 400, Seed: 12, Weighted: true, Workers: 1, Name: "golden"})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func goldenParams(g *graph.Graph) algo.Params {
	return algo.Params{Source: 0, Seed: 99, EvoNewVertices: 6}.WithDefaults(g.NumVertices())
}

// goldenRow is what the golden test pins per (workload, workers): a
// SHA-256 of the output's %v rendering (floats print in their shortest
// round-trip form, so equal digests mean bit-identical outputs) and the
// engine counters that must not depend on how the engine sorts or
// buffers.
type goldenRow struct {
	Output                                     string
	Supersteps, Messages, MessageBytes         int64
	NetworkBytes, SpilledBytes, EdgesTraversed int64
}

func goldenOf(out any, c platform.Counters) goldenRow {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%T %v", out, out)))
	return goldenRow{
		Output:         hex.EncodeToString(sum[:]),
		Supersteps:     c.Supersteps,
		Messages:       c.Messages,
		MessageBytes:   c.MessageBytes,
		NetworkBytes:   c.NetworkBytes,
		SpilledBytes:   c.SpilledBytes,
		EdgesTraversed: c.EdgesTraversed,
	}
}

// golden pins every registry workload's output and shuffle counters on
// goldenGraph at 1, 2 and 3 map/reduce slots, indexed [workload][workers-1].
// Any change to how the engine sorts or buffers must reproduce these
// exactly: the same records, in the same order, through the same codec.
var golden = map[algo.Kind][3]goldenRow{
	algo.BFS: {
		{Output: "bcb2e0791ee36a0af58598b45f5004aa4328b75d10f07302f7b86287da0eefcb", Supersteps: 5, Messages: 10480, MessageBytes: 154861, NetworkBytes: 0, SpilledBytes: 154861, EdgesTraversed: 8480},
		{Output: "bcb2e0791ee36a0af58598b45f5004aa4328b75d10f07302f7b86287da0eefcb", Supersteps: 5, Messages: 10480, MessageBytes: 154861, NetworkBytes: 48593, SpilledBytes: 154861, EdgesTraversed: 8480},
		{Output: "bcb2e0791ee36a0af58598b45f5004aa4328b75d10f07302f7b86287da0eefcb", Supersteps: 5, Messages: 10480, MessageBytes: 154861, NetworkBytes: 67781, SpilledBytes: 154861, EdgesTraversed: 8480},
	},
	algo.CD: {
		{Output: "e403b792ded34ed4b6f3f4c5e69e9174823e3192963d86afe64e33ce1c93837b", Supersteps: 10, Messages: 88820, MessageBytes: 1503669, NetworkBytes: 0, SpilledBytes: 1503669, EdgesTraversed: 84820},
		{Output: "e403b792ded34ed4b6f3f4c5e69e9174823e3192963d86afe64e33ce1c93837b", Supersteps: 10, Messages: 88820, MessageBytes: 1503669, NetworkBytes: 673685, SpilledBytes: 1503669, EdgesTraversed: 84820},
		{Output: "e403b792ded34ed4b6f3f4c5e69e9174823e3192963d86afe64e33ce1c93837b", Supersteps: 10, Messages: 88820, MessageBytes: 1503669, NetworkBytes: 942145, SpilledBytes: 1503669, EdgesTraversed: 84820},
	},
	algo.CONN: {
		{Output: "4f6081bb6aa9d3be5c7f320ebd36ea93a06500b6ed8f2fe783bf245c81186422", Supersteps: 5, Messages: 24066, MessageBytes: 228669, NetworkBytes: 0, SpilledBytes: 228669, EdgesTraversed: 22066},
		{Output: "4f6081bb6aa9d3be5c7f320ebd36ea93a06500b6ed8f2fe783bf245c81186422", Supersteps: 5, Messages: 24066, MessageBytes: 228669, NetworkBytes: 85253, SpilledBytes: 228669, EdgesTraversed: 22066},
		{Output: "4f6081bb6aa9d3be5c7f320ebd36ea93a06500b6ed8f2fe783bf245c81186422", Supersteps: 5, Messages: 24066, MessageBytes: 228669, NetworkBytes: 122644, SpilledBytes: 228669, EdgesTraversed: 22066},
	},
	algo.EVO: {
		{Output: "af39ccaa1c29c6ae34d23d4cc85d9d830c1f10617f7e0266b39cd1bbf4a23783", Supersteps: 4, Messages: 1611, MessageBytes: 160545, NetworkBytes: 0, SpilledBytes: 160545, EdgesTraversed: 11},
		{Output: "af39ccaa1c29c6ae34d23d4cc85d9d830c1f10617f7e0266b39cd1bbf4a23783", Supersteps: 4, Messages: 1611, MessageBytes: 160545, NetworkBytes: 39659, SpilledBytes: 160545, EdgesTraversed: 11},
		{Output: "af39ccaa1c29c6ae34d23d4cc85d9d830c1f10617f7e0266b39cd1bbf4a23783", Supersteps: 4, Messages: 1611, MessageBytes: 160545, NetworkBytes: 55448, SpilledBytes: 160545, EdgesTraversed: 11},
	},
	algo.STATS: {
		{Output: "2f7552f3d76711f3c4e774ec91ba75eb35d488a124cb476e24cbce7e4863dab5", Supersteps: 2, Messages: 17648, MessageBytes: 588419, NetworkBytes: 0, SpilledBytes: 588419, EdgesTraversed: 8424},
		{Output: "2f7552f3d76711f3c4e774ec91ba75eb35d488a124cb476e24cbce7e4863dab5", Supersteps: 2, Messages: 17648, MessageBytes: 588419, NetworkBytes: 264804, SpilledBytes: 588419, EdgesTraversed: 8424},
		{Output: "2f7552f3d76711f3c4e774ec91ba75eb35d488a124cb476e24cbce7e4863dab5", Supersteps: 2, Messages: 17648, MessageBytes: 588419, NetworkBytes: 371655, SpilledBytes: 588419, EdgesTraversed: 8424},
	},
	algo.PR: {
		{Output: "5d187dca59d60765b86ddc1be6585ceeda2cc068f39aafe613fd16333fcb451e", Supersteps: 10, Messages: 88820, MessageBytes: 1280680, NetworkBytes: 0, SpilledBytes: 1280680, EdgesTraversed: 84820},
		{Output: "5d187dca59d60765b86ddc1be6585ceeda2cc068f39aafe613fd16333fcb451e", Supersteps: 10, Messages: 88820, MessageBytes: 1280680, NetworkBytes: 567490, SpilledBytes: 1280680, EdgesTraversed: 84820},
		{Output: "5d187dca59d60765b86ddc1be6585ceeda2cc068f39aafe613fd16333fcb451e", Supersteps: 10, Messages: 88820, MessageBytes: 1280680, NetworkBytes: 792280, SpilledBytes: 1280680, EdgesTraversed: 84820},
	},
	algo.SSSP: {
		{Output: "b187653391fdf19089f26008d0e68d1dd89fea92c066ea49f1870ef5206dffb1", Supersteps: 10, Messages: 29409, MessageBytes: 1953538, NetworkBytes: 0, SpilledBytes: 1953538, EdgesTraversed: 25409},
		{Output: "b187653391fdf19089f26008d0e68d1dd89fea92c066ea49f1870ef5206dffb1", Supersteps: 10, Messages: 29409, MessageBytes: 1953538, NetworkBytes: 556831, SpilledBytes: 1953538, EdgesTraversed: 25409},
		{Output: "b187653391fdf19089f26008d0e68d1dd89fea92c066ea49f1870ef5206dffb1", Supersteps: 10, Messages: 29409, MessageBytes: 1953538, NetworkBytes: 785739, SpilledBytes: 1953538, EdgesTraversed: 25409},
	},
	algo.LCC: {
		{Output: "1ced7dbe64f3152170a749ffc8c127c84c5b30418315bf544e76ccd2225c2724", Supersteps: 2, Messages: 17648, MessageBytes: 589735, NetworkBytes: 0, SpilledBytes: 589735, EdgesTraversed: 8424},
		{Output: "1ced7dbe64f3152170a749ffc8c127c84c5b30418315bf544e76ccd2225c2724", Supersteps: 2, Messages: 17648, MessageBytes: 589735, NetworkBytes: 264804, SpilledBytes: 589735, EdgesTraversed: 8424},
		{Output: "1ced7dbe64f3152170a749ffc8c127c84c5b30418315bf544e76ccd2225c2724", Supersteps: 2, Messages: 17648, MessageBytes: 589735, NetworkBytes: 371655, SpilledBytes: 589735, EdgesTraversed: 8424},
	},
}

// TestGoldenOutputsAndCounters runs every registry workload at 1, 2 and
// 3 slots and compares each output digest and counter with golden.
func TestGoldenOutputsAndCounters(t *testing.T) {
	g := goldenGraph(t)
	params := goldenParams(g)
	for _, spec := range workload.All() {
		for workers := 1; workers <= 3; workers++ {
			loaded, err := New(Options{Workers: workers, RoundOverhead: -1}).LoadGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := loaded.Run(context.Background(), spec.Kind, params)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", spec.Kind, workers, err)
			}
			got := goldenOf(res.Output, res.Counters)
			want, ok := golden[spec.Kind]
			if !ok || got != want[workers-1] {
				t.Errorf("%s workers=%d:\n got  %#v\n want %#v", spec.Kind, workers, got, want[workers-1])
			}
		}
	}
}

// TestReusedSpillBuffersCarryNoStaleData cancels jobs mid-map and
// mid-reduce, leaving the cluster's spill buffers partly filled, then
// runs a fresh job on the same Cluster: its output and job counters must
// equal a new Cluster's.
func TestReusedSpillBuffersCarryNoStaleData(t *testing.T) {
	// More records per mapper and more groups per reducer than one
	// CheckStride, so the cancellation probes fire mid-phase.
	const n = 5 * platform.CheckStride
	input := make([]Record, n)
	for i := range input {
		input[i] = Record{Key: int64(i), Value: appendUvarint(nil, uint64(i))}
	}
	// The reducer concatenates every value it receives, so any stale or
	// misplaced spill byte changes the output.
	job := func(cancelIn string, cancel context.CancelFunc) Job {
		return Job{
			Name: "fold",
			Map: func(tc *TaskCtx, r Record, emit Emit) {
				if cancelIn == "map" && r.Key == 100 {
					cancel()
				}
				emit(r.Key, r.Value)
				emit(r.Key%13, r.Value)
				emit(r.Key%997, r.Value)
				tc.Inc("mapped", 1)
			},
			Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
				if cancelIn == "reduce" {
					cancel()
				}
				var out []byte
				for _, v := range values {
					out = append(out, v...)
				}
				emit(key, out)
				tc.Inc("groups", 1)
			},
		}
	}
	for _, workers := range []int{1, 3} {
		reused := &Cluster{Workers: workers}
		if _, err := reused.Run(context.Background(), input, job("", nil)); err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"map", "reduce"} {
			ctx, cancel := context.WithCancel(context.Background())
			_, err := reused.Run(ctx, input, job(phase, cancel))
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: job cancelled in %s returned %v", workers, phase, err)
			}
		}
		got, err := reused.Run(context.Background(), input[:n/2], job("", nil))
		if err != nil {
			t.Fatal(err)
		}
		want, err := (&Cluster{Workers: workers}).Run(context.Background(), input[:n/2], job("", nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Output) != len(want.Output) {
			t.Fatalf("workers=%d: %d records after cancelled jobs, %d on a new cluster", workers, len(got.Output), len(want.Output))
		}
		for i := range want.Output {
			if got.Output[i].Key != want.Output[i].Key || !bytes.Equal(got.Output[i].Value, want.Output[i].Value) {
				t.Fatalf("workers=%d: record %d differs after cancelled jobs", workers, i)
			}
		}
		if fmt.Sprint(got.Counters) != fmt.Sprint(want.Counters) {
			t.Fatalf("workers=%d: job counters %v after cancelled jobs, %v on a new cluster", workers, got.Counters, want.Counters)
		}
	}
}
