package mapreduce

import (
	"context"
	"testing"

	"graphalytics/internal/workload"
)

// BenchmarkClusterRun times one job chain per registry workload on the
// golden graph with two map/reduce slots and no modelled job overhead,
// so it measures the engine's own map, shuffle, sort and reduce work:
//
//	go test -run xxx -bench ClusterRun ./internal/platform/mapreduce
func BenchmarkClusterRun(b *testing.B) {
	g := goldenGraph(b)
	params := goldenParams(g)
	loaded, err := New(Options{Workers: 2, RoundOverhead: -1}).LoadGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	defer loaded.Close()
	for _, spec := range workload.All() {
		b.Run(string(spec.Kind), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := loaded.Run(context.Background(), spec.Kind, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
