// Command perfbench is the repository's end-to-end benchmark. It builds
// its inputs from a seed, drives the harness through its Go API
// (core.Benchmark, graph.LoadEdgeList, dist.NewManager/dist.Connect),
// checks every output, and prints one JSON object as its last line.
//
//	go build -o perfbench . && ./perfbench -workload matrix -seed 1 -seconds 40 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of untraced runs.
// With -trace 1 it alternates untraced and traced iterations and
// reports the per-layer metrics of the traced ones, plus the tracing
// overhead. Spans are recorded in memory by this package only, around
// its own calls into each layer, and written to a span file at exit;
// the program's process-wide tracer stays off. See README.md for the
// metric list and which end-to-end metric each layer metric moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		wlName  = flag.String("workload", "", "workload: matrix, ingest or dist-small")
		seed    = flag.Uint64("seed", defaultSeed, "seed for every input generator and for algorithm parameters")
		seconds = flag.Float64("seconds", 40, "measure for about this long (at least minIterations iterations run)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of traced runs")
		outDir  = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch inputs, the span file and the result file")
	)
	flag.Parse()
	// Leased cells log several Info lines each; stderr traffic is not
	// what the benchmark measures.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))

	wl, ok := workloads[*wlName]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *wlName, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, workers: runtime.NumCPU(), dir: *outDir, sizes: benchSizes}
	res, err := measure(wl, cfg, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}

	env := environment(cfg, wl, res)
	envLine, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("env %s\n", envLine)
	tag := fmt.Sprintf("%s-seed%d-trace%d", wl.name, cfg.seed, *trace)
	if *trace == 1 {
		if err := writeSpans(filepath.Join(*outDir, "spans-"+tag+".json"), res.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing span file: %v\n", err)
			return 1
		}
	}
	out := output{
		Correct:   len(res.failures) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   res.metrics,
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	record, err := json.MarshalIndent(struct {
		Env        map[string]any   `json:"env"`
		Iterations []map[string]any `json:"iterations"`
		Failures   []string         `json:"failures,omitempty"`
		Result     output           `json:"result"`
	}{env, res.iterations, res.failures, out}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(*outDir, "result-"+tag+".json"), record, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result file: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeSpans writes the traced iterations' spans as Chrome trace_event
// JSON (open in chrome://tracing or Perfetto).
func writeSpans(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.attrs {
			args[k] = v
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			TS:  float64(s.start.UnixNano()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID: s.iteration, TID: 1, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
