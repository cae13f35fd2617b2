package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"graphalytics/internal/dist"
	"graphalytics/internal/platform"
)

// tinySizes keep a full iteration of every workload under a second.
var tinySizes = sizes{
	matrixPersons:   120,
	matrixRMATScale: 6,
	ingestRMATScale: 8,
	ingestPersons:   300,
	distGraphs:      3,
	distPersons:     40,
}

// TestTracedMatchesUntraced runs each workload once untraced and once
// traced on tiny inputs: both must pass every check and agree exactly
// on cell statuses, counters, stamped fingerprints and lease counts, so
// the per-layer numbers describe the program the end-to-end numbers
// measure.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			c := config{seed: heldOutSeed, workers: 2, dir: t.TempDir(), sizes: tinySizes}
			plain, err := runIteration(workloads[name], c, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runIteration(workloads[name], c, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range []*iteration{plain, traced} {
				if len(it.failures) > 0 {
					t.Errorf("traced=%t: checks failed: %s", it.traced, strings.Join(it.failures, "; "))
				}
			}
			if plain.signature != traced.signature {
				t.Errorf("traced run diverged:\nuntraced:\n%s\ntraced:\n%s", plain.signature, traced.signature)
			}
			if len(plain.spans) != 0 {
				t.Errorf("untraced iteration recorded %d spans", len(plain.spans))
			}
			layers := map[string]bool{}
			for _, s := range traced.spans {
				layers[s.layer] = true
			}
			want := []string{"setup", "gen", "pass", "ingest", "report"}
			switch name {
			case "dist-small":
				want = append(want, "dist", "artifact")
			case "ingest":
				want = append(want, "graph", "etl", "kernel", "validate")
			default:
				want = append(want, "artifact", "etl", "kernel", "validate")
			}
			for _, l := range want {
				if !layers[l] {
					t.Errorf("traced iteration has no %s span (layers %v)", l, layers)
				}
			}
			if traced.layers["stamp.uptodate_cells"] == 0 {
				t.Errorf("warm rerun restored no cell from stamps")
			}
		})
	}
}

// TestTraceableForwardsOptionalInterfaces: a wrapped engine must keep
// its configuration stamp, concurrency hint and ETL caching, or the
// traced campaign would fingerprint and schedule differently.
func TestTraceableForwardsOptionalInterfaces(t *testing.T) {
	for _, p := range enginePlatforms(dist.AllPlatforms, 2) {
		w := traceable(p, newTracer(0), 0)
		if got, want := platform.StampConfigOf(w), platform.StampConfigOf(p); got != want {
			t.Errorf("%s: StampConfig %q, want %q", p.Name(), got, want)
		}
		if got, want := platform.ConcurrencyLimitOf(w), platform.ConcurrencyLimitOf(p); got != want {
			t.Errorf("%s: ConcurrencyLimit %d, want %d", p.Name(), got, want)
		}
		_, inner := p.(platform.CachedLoader)
		_, outer := w.(platform.CachedLoader)
		if inner != outer {
			t.Errorf("%s: CachedLoader %t after wrapping, want %t", p.Name(), outer, inner)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with what the command
// prints: the same workloads with the same reasons, and the same
// metrics with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if wl, ok := workloads[w.Name]; !ok || wl.why != w.Why {
			t.Errorf("workload %q: BENCHMARK.json why %q does not match the command's", w.Name, w.Why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}
