package core

import (
	"sync"
	"sync/atomic"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/telemetry"
	"graphalytics/internal/workload"
)

// graphRefs holds one graph's reference outputs for a validating
// campaign. Every platform runs the same workloads on the same graph
// with the same params, so each reference is computed once: by the
// first cell that validates the workload, inside that cell's validate
// span. Cells of other platforms that validate the same workload
// meanwhile wait for it instead of computing it again. The outputs are
// dropped when the graph's last pending cell finishes, so a long
// multi-graph campaign holds only the references of graphs it is still
// running.
type graphRefs struct {
	// pending counts the graph's cells (over every platform) still owing
	// a final outcome.
	pending atomic.Int64
	mu      sync.Mutex
	byKind  map[algo.Kind]*reference
}

// referenceRuns counts reference computations across campaigns.
var referenceRuns = telemetry.Metrics.Counter("core_reference_runs_total",
	"reference outputs computed by the Output Validator (one per graph and workload per campaign)")

type reference struct {
	once sync.Once
	out  any
}

// get returns spec's reference output on g, computing it on first use.
func (r *graphRefs) get(spec workload.Spec, g *graph.Graph, p algo.Params) any {
	r.mu.Lock()
	if r.byKind == nil {
		r.byKind = make(map[algo.Kind]*reference)
	}
	ref := r.byKind[spec.Kind]
	if ref == nil {
		ref = &reference{}
		r.byKind[spec.Kind] = ref
	}
	r.mu.Unlock()
	ref.once.Do(func() {
		referenceRuns.Inc()
		ref.out = spec.Reference(g, p)
	})
	return ref.out
}

// cellDone records a final outcome for one of the graph's cells; the
// last one drops the references. A nil graphRefs (validation off) is a
// no-op.
func (r *graphRefs) cellDone() {
	if r == nil {
		return
	}
	if r.pending.Add(-1) == 0 {
		r.mu.Lock()
		r.byKind = nil
		r.mu.Unlock()
	}
}
