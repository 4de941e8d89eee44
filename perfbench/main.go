// Command perfbench is the repository's end-to-end benchmark: a 3-site
// cluster of the real stack (engine.Runtime, qm.Manager, ri.Issuer,
// storage.Store, the deadlock detector at site 0) in one process, talking
// through transport.Node over 127.0.0.1 TCP, driven by a seeded load.
//
//	perfbench -workload uniform-rw -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs the
// same workload with every actor wrapped and prints the per-layer metrics.
// Every run checks its results (lost updates, transactions left
// unfinished; with -trace 1 also serializability of a recorded history) and
// exits non-zero when a check fails. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// maxProcs caps GOMAXPROCS: the benchmark is defined on two processors.
const maxProcs = 2

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (uniform-rw, hot-durable, read-mostly-open)")
		seed    = flag.Int64("seed", 1, "seed for the generated transactions and arrival schedule")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 = per-layer run with every actor traced, 0 = end-to-end run")
		out     = flag.String("out", ".bench_build", "directory for WAL files and span dumps")
	)
	flag.Parse()
	if runtime.NumCPU() > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(runOptions{
		w:      w,
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		warmup: warmup,
		setups: setups,
		trace:  *trace == 1,
		out:    *out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := json.Marshal(res.json())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	problems  []string // failed correctness checks
	notes     []string // sample counts and other context, printed as comments
	attempted uint64
	failed    uint64
	metrics   []metric
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) correct() bool { return len(r.problems) == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) json() jsonResult {
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return out
}
