package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/dataflow"
	"graphalytics/internal/platform/mapreduce"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/report"
	"graphalytics/internal/workload"
)

// The graphdb engine is left out of these campaigns: its page cache
// has a race of its own under concurrent cells.

// renamedPlatform gives a wrapped platform a distinct matrix name, so
// one engine can fill two platform slots of a campaign.
type renamedPlatform struct {
	platform.Platform
	name string
}

func (r renamedPlatform) Name() string { return r.name }

// corruptPlatform wraps a platform and damages every output it returns,
// so each of its validated cells must come out invalid.
type corruptPlatform struct{ platform.Platform }

func (c corruptPlatform) Name() string { return "corrupt" }

func (c corruptPlatform) LoadGraph(g *graph.Graph) (platform.Loaded, error) {
	l, err := c.Platform.LoadGraph(g)
	if err != nil {
		return nil, err
	}
	return corruptLoaded{l}, nil
}

type corruptLoaded struct{ platform.Loaded }

func (l corruptLoaded) Run(ctx context.Context, kind algo.Kind, p algo.Params) (*platform.Result, error) {
	res, err := l.Loaded.Run(ctx, kind, p)
	if err != nil {
		return nil, err
	}
	switch out := res.Output.(type) {
	case algo.BFSOutput:
		out[0]++
	case algo.ConnOutput:
		out[0]++
	case algo.CDOutput:
		out[0] = (out[0] + 1) % int64(len(out))
	case algo.PROutput:
		out[0] += 1e-3
	case algo.SSSPOutput:
		out[0] += 0.5
	case algo.LCCOutput:
		out[0] += 2
	case algo.StatsOutput:
		out.Vertices++
		res.Output = out
	case algo.EvoOutput:
		out.NewVertices++
		res.Output = out
	default:
		return nil, fmt.Errorf("corruptLoaded: no corruption for %T", out)
	}
	return res, nil
}

// fourEngines returns four non-graphdb platforms with distinct names.
func fourEngines() []platform.Platform {
	return []platform.Platform{
		pregel.New(pregel.Options{Workers: 1}),
		mapreduce.New(mapreduce.Options{Workers: 2, RoundOverhead: -1}),
		dataflow.New(dataflow.Options{Parts: 2}),
		renamedPlatform{pregel.New(pregel.Options{Workers: 2}), "pregel-2"},
	}
}

// runCountingReferences runs b and returns how many references it
// computed.
func runCountingReferences(t *testing.T, b *Benchmark) (*report.Report, int64) {
	t.Helper()
	before := referenceRuns.Value()
	rep, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep, referenceRuns.Value() - before
}

func assertAllSuccess(t *testing.T, rep *report.Report) {
	t.Helper()
	for _, r := range rep.Results {
		if r.Status != report.StatusSuccess {
			t.Errorf("%s/%s/%s: status %s (%s)", r.Platform, r.Graph, r.Algorithm, r.Status, r.Err)
		}
	}
}

func TestReferenceComputedOncePerGraphAndWorkload(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			b := &Benchmark{
				Platforms:   fourEngines(),
				Graphs:      []*graph.Graph{smokeGraph(t, 150, "ref-a"), smokeGraph(t, 220, "ref-b")},
				Validate:    true,
				Parallelism: par,
			}
			rep, refs := runCountingReferences(t, b)
			kinds := len(workload.Kinds())
			if len(rep.Results) != 4*2*kinds {
				t.Fatalf("%d results, want %d", len(rep.Results), 4*2*kinds)
			}
			assertAllSuccess(t, rep)
			if want := int64(2 * kinds); refs != want {
				t.Errorf("computed %d references, want one per (graph, workload) = %d", refs, want)
			}
		})
	}
}

// TestReferenceMemoStillRejectsCorruptOutput puts a corrupting platform
// at the 2nd, 3rd and 4th place of the sequential schedule, where every
// reference it is checked against comes from the memo.
func TestReferenceMemoStillRejectsCorruptOutput(t *testing.T) {
	for pos := 1; pos < 4; pos++ {
		t.Run(fmt.Sprintf("cell=%d", pos+1), func(t *testing.T) {
			platforms := fourEngines()
			platforms[pos] = corruptPlatform{platforms[pos]}
			b := &Benchmark{
				Platforms:   platforms,
				Graphs:      []*graph.Graph{smokeGraph(t, 150, "ref-corrupt")},
				Validate:    true,
				Parallelism: 1,
			}
			rep, refs := runCountingReferences(t, b)
			if want := int64(len(workload.Kinds())); refs != want {
				t.Errorf("computed %d references, want %d", refs, want)
			}
			for _, r := range rep.Results {
				wantStatus := report.StatusSuccess
				if r.Platform == "corrupt" {
					wantStatus = report.StatusInvalid
				}
				if r.Status != wantStatus {
					t.Errorf("%s/%s: status %s, want %s (%s)", r.Platform, r.Algorithm, r.Status, wantStatus, r.Err)
				}
			}
		})
	}
}

func TestReferenceNotComputedForRestoredCells(t *testing.T) {
	dir := t.TempDir()
	g := smokeGraph(t, 150, "ref-warm")
	campaign := func(stampsPath, journal string) *Benchmark {
		b := &Benchmark{
			Platforms:      fourEngines()[:2],
			Graphs:         []*graph.Graph{g},
			Validate:       true,
			CheckpointPath: journal,
			BinaryVersion:  "ref-test",
		}
		if stampsPath != "" {
			b.Stamps = openStamps(t, stampsPath)
		}
		return b
	}
	for _, c := range []struct{ name, stamps, journal string }{
		{"uptodate", filepath.Join(dir, "stamps.jsonl"), ""},
		{"resumed", "", filepath.Join(dir, "journal.jsonl")},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep, cold := runCountingReferences(t, campaign(c.stamps, c.journal))
			assertAllSuccess(t, rep)
			if cold != int64(len(workload.Kinds())) {
				t.Fatalf("cold campaign computed %d references, want %d", cold, len(workload.Kinds()))
			}
			rep, warm := runCountingReferences(t, campaign(c.stamps, c.journal))
			for _, r := range rep.Results {
				if r.Provenance != report.ProvenanceUptodate && r.Provenance != report.ProvenanceResumed {
					t.Errorf("%s/%s: provenance %q, want restored", r.Platform, r.Algorithm, r.Provenance)
				}
			}
			if warm != 0 {
				t.Errorf("warm rerun computed %d references, want 0", warm)
			}
		})
	}
}

func TestReferenceMemoDroppedAfterLastCell(t *testing.T) {
	g := smokeGraph(t, 100, "ref-drop")
	spec, _ := workload.Lookup(algo.CONN)
	p := algo.Params{}.WithDefaults(g.NumVertices())
	r := &graphRefs{}
	r.pending.Add(2)
	first := r.get(spec, g, p)
	if second := r.get(spec, g, p); fmt.Sprint(second) != fmt.Sprint(first) {
		t.Fatal("memoised reference differs from the first computation")
	}
	r.cellDone()
	if r.byKind == nil {
		t.Fatal("references dropped while a cell is still pending")
	}
	r.cellDone()
	if r.byKind != nil {
		t.Fatal("references kept after the graph's last cell finished")
	}
	var off *graphRefs
	off.cellDone() // validation off: no memo, no panic
}
