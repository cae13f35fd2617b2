// Package mapreduce implements the Hadoop MapReduce analogue: a real
// map / sort-shuffle / reduce engine on which the five Graphalytics
// algorithms run as chains of jobs that carry the whole graph through
// every iteration.
//
// Fidelity notes (why this platform lands where Figure 4 puts Hadoop —
// one to two orders of magnitude slower than the BSP engine, but
// unkillable):
//
//   - every job physically serializes all intermediate records to byte
//     buffers, sorts each reduce partition, and deserializes on the
//     other side — iteration state (including adjacency lists) pays the
//     full materialization cost every round, exactly like HDFS-backed
//     Hadoop iterations;
//   - partitions and job outputs are sorted by (key, value bytes) with a
//     typed comparison, the raw-comparator sort of Hadoop's shuffle: the
//     order is total, so reducers that sum floats (PageRank) see their
//     values in the same order at every slot count;
//   - the [mapper][reducer] spill buffers live on the Cluster and are
//     emptied, not freed, between the jobs of a chain, as Hadoop reuses
//     its fixed map-side sort buffer; mappers count records per spill,
//     so each reducer sizes its record slice once;
//   - every job pays a configurable scheduling overhead (YARN container
//     launch in the original);
//   - there is no memory budget: state streams through buffers, so the
//     engine processes any graph if given enough time ("MapReduce does
//     not need to keep graph data in memory during processing and thus
//     does not crash", §3.3).
package mapreduce

import (
	"bytes"
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"time"

	"graphalytics/internal/platform"
	"graphalytics/internal/telemetry"
)

// Record is one key/value pair. Values are opaque bytes: jobs encode and
// decode them with the codec in this package, paying real serialization
// cost.
type Record struct {
	Key   int64
	Value []byte
}

// Emit receives output records from mappers and reducers.
type Emit func(key int64, value []byte)

// TaskCtx gives mappers/reducers access to job counters.
type TaskCtx struct {
	mu       sync.Mutex
	counters map[string]int64
}

// Inc adds delta to a named job counter (Hadoop counter analogue).
func (t *TaskCtx) Inc(name string, delta int64) {
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// Job is one MapReduce job.
type Job struct {
	// Name appears in traces.
	Name string
	// Map is invoked once per input record.
	Map func(tc *TaskCtx, r Record, emit Emit)
	// Reduce is invoked once per distinct key with all values for it
	// (sorted bytewise). The values slice and the bytes it points to are
	// valid only during the call; emit copies what it is given.
	Reduce func(tc *TaskCtx, key int64, values [][]byte, emit Emit)
}

// JobResult carries a job's output and counters.
type JobResult struct {
	Output   []Record
	Counters map[string]int64
}

// Cluster executes jobs. A Cluster runs one job at a time: its spill
// buffers belong to the job in flight.
type Cluster struct {
	// Workers is the number of map/reduce slots (default GOMAXPROCS).
	Workers int
	// RoundOverhead is paid once per job (scheduling, container launch).
	RoundOverhead time.Duration
	// Counters accumulates engine metrics across jobs of one algorithm.
	Counters *platform.Counters

	busyMu sync.Mutex // guards Counters.WorkerBusy during a job

	// spills[m][r] holds mapper m's serialized records for reducer r and
	// spillRecs[m][r] their count. Both are reset, not reallocated, at
	// each job, so a job chain reuses the buffers the way Hadoop reuses
	// its fixed map-side sort buffer.
	spills    [][][]byte
	spillRecs [][]int
	// outHint[r] is reducer r's output size in the previous job, the
	// initial capacity of its next output buffer (a chain's jobs emit
	// much the same state every round).
	outHint []int
}

// Run executes one job over input.
func (c *Cluster) Run(ctx context.Context, input []Record, job Job) (*JobResult, error) {
	if err := platform.CheckContextPhase(ctx, "mapreduce/submit"); err != nil {
		return nil, err
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if c.Counters == nil {
		c.Counters = &platform.Counters{}
	}
	if c.RoundOverhead > 0 {
		time.Sleep(c.RoundOverhead)
	}
	c.Counters.Supersteps++ // jobs
	sp := telemetry.StartSpan("mapreduce", "job:"+job.Name)
	sp.SetAttr("workers", workers)
	sp.SetAttr("records_in", len(input))
	defer sp.End()

	tc := &TaskCtx{counters: map[string]int64{}}
	errs := make([]error, workers)
	c.resetSpills(workers)

	// ------------------------- map phase -------------------------
	// Each mapper serializes its emissions into per-reducer spill
	// buffers (the in-memory stand-in for map output files), counting
	// records per spill and probing the context every CheckStride input
	// records.
	splits := splitRecords(input, workers)
	var wg sync.WaitGroup
	for m := 0; m < workers; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			start := time.Now()
			spills, counts := c.spills[m], c.spillRecs[m]
			emit := func(key int64, value []byte) {
				r := int(uint64(key*0x9e3779b9) % uint64(workers))
				if key < 0 {
					r = int(uint64(-key) % uint64(workers))
				}
				spills[r] = appendRecord(spills[r], key, value)
				counts[r]++
			}
			for ri, rec := range splits[m] {
				if ri%platform.CheckStride == 0 && ctx.Err() != nil {
					errs[m] = platform.CheckContextPhase(ctx, "mapreduce/map")
					break
				}
				job.Map(tc, rec, emit)
			}
			c.addBusy(m, workers, time.Since(start))
		}(m)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}

	// --------------------- shuffle + sort phase ---------------------
	// Each reducer fetches its buffer from every mapper (cross-worker
	// fetches count as network traffic), deserializes, and sorts.
	type reduceOut struct {
		buf  []byte
		recs int
	}
	outs := make([]reduceOut, workers)
	var spilled, network, shuffled int64
	var statMu sync.Mutex
	for r := 0; r < workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			start := time.Now()
			size := 0
			for m := 0; m < workers; m++ {
				size += c.spillRecs[m][r]
			}
			recs := make([]Record, 0, size)
			var localSpill, localNet, count int64
			for m := 0; m < workers; m++ {
				buf := c.spills[m][r]
				localSpill += int64(len(buf))
				if m != r {
					localNet += int64(len(buf))
				}
				for len(buf) > 0 {
					if count%int64(platform.CheckStride) == 0 && ctx.Err() != nil {
						errs[r] = platform.CheckContextPhase(ctx, "mapreduce/shuffle")
						return
					}
					var rec Record
					rec, buf = readRecord(buf)
					recs = append(recs, rec)
					count++
				}
			}
			slices.SortFunc(recs, compareRecords)

			// Group by key and reduce, serializing output (HDFS write).
			// values is one scratch slice for every group: Reduce must
			// not keep it, and emit copies the bytes it is given.
			out := make([]byte, 0, c.outHint[r])
			emitted := 0
			emit := func(key int64, value []byte) {
				out = appendRecord(out, key, value)
				emitted++
			}
			var values [][]byte
			groups := 0
			for i := 0; i < len(recs); {
				if groups%platform.CheckStride == 0 && ctx.Err() != nil {
					errs[r] = platform.CheckContextPhase(ctx, "mapreduce/reduce")
					return
				}
				groups++
				j := i
				values = values[:0]
				for j < len(recs) && recs[j].Key == recs[i].Key {
					values = append(values, recs[j].Value)
					j++
				}
				job.Reduce(tc, recs[i].Key, values, emit)
				i = j
			}
			outs[r] = reduceOut{buf: out, recs: emitted}
			c.outHint[r] = len(out)
			statMu.Lock()
			spilled += localSpill + int64(len(out))
			network += localNet
			shuffled += count
			statMu.Unlock()
			c.addBusy(r, workers, time.Since(start))
		}(r)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	c.Counters.Messages += shuffled
	c.Counters.MessageBytes += spilled
	c.Counters.SpilledBytes += spilled
	c.Counters.NetworkBytes += network

	// Deserialize job output (HDFS read of the next job), one decoder
	// per reducer output in parallel, each into its own reducer-order
	// range of the output.
	total := 0
	for _, o := range outs {
		total += o.recs
	}
	output := make([]Record, total)
	lo := 0
	for r := 0; r < workers; r++ {
		part := output[lo : lo+outs[r].recs]
		lo += outs[r].recs
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := outs[r].buf
			for i := range part {
				if i%platform.CheckStride == 0 && ctx.Err() != nil {
					errs[r] = platform.CheckContextPhase(ctx, "mapreduce/output")
					return
				}
				part[i], buf = readRecord(buf)
			}
		}(r)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	slices.SortFunc(output, compareRecords) // deterministic chaining independent of workers
	sp.SetAttr("records_out", len(output))
	return &JobResult{Output: output, Counters: tc.counters}, nil
}

// resetSpills empties the [mapper][reducer] spill buffers for a new job,
// keeping their capacity; they are (re)allocated only when the slot count
// changes.
func (c *Cluster) resetSpills(workers int) {
	if len(c.spills) != workers {
		c.spills = make([][][]byte, workers)
		c.spillRecs = make([][]int, workers)
		c.outHint = make([]int, workers)
		for m := range c.spills {
			c.spills[m] = make([][]byte, workers)
			c.spillRecs[m] = make([]int, workers)
		}
		return
	}
	for m := range c.spills {
		for r := range c.spills[m] {
			c.spills[m][r] = c.spills[m][r][:0]
		}
		clear(c.spillRecs[m])
	}
}

// firstError returns the lowest-indexed non-nil error from a per-worker
// error slice (deterministic pick under concurrent interruption).
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) addBusy(w, workers int, d time.Duration) {
	c.busyMu.Lock()
	defer c.busyMu.Unlock()
	if len(c.Counters.WorkerBusy) < workers {
		grown := make([]time.Duration, workers)
		copy(grown, c.Counters.WorkerBusy)
		c.Counters.WorkerBusy = grown
	}
	c.Counters.WorkerBusy[w] += d
}

func splitRecords(input []Record, parts int) [][]Record {
	out := make([][]Record, parts)
	chunk := (len(input) + parts - 1) / parts
	for p := 0; p < parts; p++ {
		lo, hi := p*chunk, (p+1)*chunk
		if lo > len(input) {
			lo = len(input)
		}
		if hi > len(input) {
			hi = len(input)
		}
		out[p] = input[lo:hi]
	}
	return out
}

// compareRecords orders records by key, then by value bytes: the order
// every reduce partition and every job output is sorted in.
func compareRecords(a, b Record) int {
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return bytes.Compare(a.Value, b.Value)
}
