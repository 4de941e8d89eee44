// Command uccbench runs the paper-reproduction experiments and prints the
// tables/series of DESIGN.md's experiment index.
//
// Usage:
//
//	uccbench                 # run every experiment
//	uccbench -exp EXP-1      # run one experiment
//	uccbench -quick          # smaller sweeps (CI-scale)
//	uccbench -seed 7         # change the random seed
//	uccbench -list           # list experiments
//
// Bench-gate mode (CI):
//
//	go test -run '^$' -bench ... | tee bench.out
//	uccbench -check bench.out -baseline BENCH_baseline.json -tolerance 0.20
//
// compares the measured throughput metrics against the checked-in baseline
// and exits 1 on a drop beyond the tolerance — or on a baseline benchmark
// missing from the output entirely (pass -require <regexp> to scope which
// entries a deliberately-partial run owes). And:
//
//	uccbench -shards-json BENCH_shards.json
//
// runs the EXP-11 wall-clock shard sweep and writes it as JSON (the
// bench-gate job uploads it as an artifact on every PR), and:
//
//	uccbench -wire-json BENCH_wire.json
//
// measures the wire-v3 codec over the mixed message corpus and writes its
// absolute costs (same artifact contract), and:
//
//	uccbench -quorum-json BENCH_quorum.json
//
// runs the EXP-14 quorum kill-one-site sweep at full horizons and writes the
// per-outage dip/convergence rows (uploaded nightly), and:
//
//	uccbench -rebalance-json BENCH_rebalance.json
//
// runs the EXP-15 online-rebalance sweep at full horizons and writes the
// per-fraction move-window dip rows (uploaded nightly).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ucc/internal/experiments"
)

func main() {
	var (
		expID = flag.String("exp", "", "run a single experiment by id (e.g. EXP-1)")
		quick = flag.Bool("quick", false, "smaller sweeps and horizons")
		seed  = flag.Int64("seed", 1988, "random seed")
		list  = flag.Bool("list", false, "list experiments and exit")

		checkFile  = flag.String("check", "", "bench-gate mode: compare this `go test -bench` output against -baseline and exit 1 on regression")
		baseline   = flag.String("baseline", "BENCH_baseline.json", "baseline file for -check")
		tolerance  = flag.Float64("tolerance", 0.20, "relative throughput drop that fails -check")
		gateNs     = flag.Bool("gate-ns", false, "also gate ns/op in -check (off by default: wall-clock cost does not transfer across runners)")
		require    = flag.String("require", "", "regexp of baseline benchmark names that must appear in the -check output; empty requires ALL of them — a baseline entry missing from the run fails loudly instead of being skipped")
		shardsJSON = flag.String("shards-json", "", "run the EXP-11 shard sweep and write this JSON artifact, then exit")
		wireJSON   = flag.String("wire-json", "", "measure the wire-v3 codec over its corpus and write this JSON artifact, then exit")
		quorumJSON = flag.String("quorum-json", "", "run the EXP-14 quorum failover sweep at full scale and write this JSON artifact, then exit")
		rebalJSON  = flag.String("rebalance-json", "", "run the EXP-15 online-rebalance sweep at full scale and write this JSON artifact, then exit")
	)
	flag.Parse()

	if *checkFile != "" {
		os.Exit(check(*checkFile, *baseline, *tolerance, *gateNs, *require))
	}
	if *shardsJSON != "" {
		if err := writeShardsJSON(*shardsJSON, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "uccbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *shardsJSON)
		return
	}
	if *wireJSON != "" {
		if err := writeWireJSON(*wireJSON); err != nil {
			fmt.Fprintf(os.Stderr, "uccbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *wireJSON)
		return
	}
	if *quorumJSON != "" {
		if err := writeQuorumJSON(*quorumJSON, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "uccbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *quorumJSON)
		return
	}
	if *rebalJSON != "" {
		if err := writeRebalanceJSON(*rebalJSON, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "uccbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *rebalJSON)
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-7s %s\n        claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	cfg := experiments.RunConfig{Quick: *quick, Seed: *seed}
	var todo []experiments.Experiment
	if *expID != "" {
		e, ok := experiments.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "uccbench: unknown experiment %q (try -list)\n", *expID)
			os.Exit(2)
		}
		todo = []experiments.Experiment{e}
	} else {
		todo = experiments.All()
	}

	for _, e := range todo {
		start := time.Now()
		res := e.Run(cfg)
		fmt.Print(res.String())
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}
