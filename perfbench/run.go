package main

import (
	"fmt"
	"path/filepath"
	"time"

	"ucc/internal/history"
)

const (
	// warmup runs the load before the measured window opens.
	warmup = time.Second
	// setups is how many times an end-to-end run builds the cluster; setup_s
	// is their median.
	setups = 9
	// drainTimeout bounds the wait for in-flight transactions after the
	// window; quiesceTimeout the wait for their last messages.
	drainTimeout   = 10 * time.Second
	quiesceTimeout = 5 * time.Second
	// probeCommits is the size of the recorded history a traced run checks
	// for serializability (the check is quadratic in a copy's log length).
	probeCommits = 3000
	probeTimeout = 5 * time.Second
	// spanKeep bounds the spans a traced run holds for its dump.
	spanKeep = 300_000
	// tracedMax bounds the traced part of a traced run's window, and with it
	// the memory its wait samples take (about half a million handled
	// messages a second on uniform-rw).
	tracedMax = 5 * time.Second
)

type runOptions struct {
	w      workload
	seed   int64
	window time.Duration
	warmup time.Duration
	setups int
	trace  bool
	out    string
}

func run(o runOptions) (*result, error) {
	if o.trace {
		return runTraced(o)
	}
	return runPlain(o)
}

// session is one cluster under one load.
type session struct {
	c *cluster
	l *load
}

func newSession(o runOptions, cfg clusterConfig) (*session, error) {
	cfg.durable = o.w.durable
	c, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	l := newLoad(o.w, o.seed, c)
	l.tr = cfg.tracer
	return &session{c: c, l: l}, nil
}

// sleepUntil sleeps until d after load start.
func (s *session) sleepUntil(d time.Duration) {
	time.Sleep(d - time.Since(s.l.t0))
}

// finish stops the load, waits for every transaction to reach a terminal
// outcome and the cluster to go quiet, shuts the cluster down and runs the
// lost-update check.
func (s *session) finish(res *result) {
	s.l.halt()
	deadline := time.Now().Add(drainTimeout)
	for s.l.totals().open > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	quiet := s.c.quiesce(time.Now().Add(quiesceTimeout))
	s.c.close()
	t := s.l.totals()
	if t.open > 0 {
		res.fail("%d of %d transactions unfinished at the drain deadline", t.open, t.submitted)
	} else if !quiet {
		res.fail("cluster still busy %v after the last transaction finished", quiesceTimeout)
	}
	if t.unknown > 0 {
		res.fail("%d TxnDoneMsg for transactions not in flight", t.unknown)
	}
	if err := checkCounters(s.c, s.l.expected()); err != nil {
		res.fail("%v", err)
	}
	res.attempted += t.submitted
	res.failed += t.shed + t.roBusy + t.open
}

// runPlain is the end-to-end run: set up several times, then measure one
// window with nothing wrapped but the collectors' observers.
func runPlain(o runOptions) (*result, error) {
	res := &result{}
	var durs []time.Duration
	var s *session
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		var err error
		if s, err = newSession(o, clusterConfig{}); err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t0))
		if i < o.setups-1 {
			s.c.close()
		}
	}
	res.add("setup_s", medianDuration(durs).Seconds(), "s")

	heapStop := make(chan struct{})
	s.l.start()
	heap := sampleHeap(s.l, heapStop)
	s.sleepUntil(o.warmup)
	a := s.c.counters(s.l)
	s.sleepUntil(o.warmup + o.window)
	b := s.c.counters(s.l)
	close(heapStop)
	heapMB := heap.peakMB()
	s.finish(res)

	rw, ro, _, _ := s.l.window(a.at, b.at)
	secs := time.Duration(b.at - a.at).Seconds()
	commits := float64(len(rw) + len(ro))
	res.add("commit_tps", commits/secs, "1/s")
	res.add("rw_p50_ms", ms(quantile(rw, 0.5)), "ms")
	res.add("rw_p99_ms", ms(quantile(rw, 0.99)), "ms")
	res.add("cpu_us_per_commit", ratio(float64((b.cpu-a.cpu).Microseconds()), commits), "us")
	res.add("heap_peak_mb", heapMB, "MB")
	res.note("workload %s seed %d: %d rw + %d ro commits in a %.3f s window; setups %v",
		o.w.name, o.seed, len(rw), len(ro), secs, durs)
	if len(ro) > 0 {
		res.note("ro commit latency: p50 %.4f ms, p99 %.4f ms", ms(quantile(ro, 0.5)), ms(quantile(ro, 0.99)))
	}
	res.note("failed %d of %d submitted (shed, RO busy-shed, unfinished)", res.failed, res.attempted)
	return res, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// runTraced is the per-layer run. It first checks a short recorded history
// for serializability on a cluster of its own, then drives a traced
// cluster: the first part of the window with the wrappers passing straight
// through (counters, and the untraced rate), the last half or tracedMax,
// whichever is shorter, recording spans (times inside and between layers,
// and the traced rate).
func runTraced(o runOptions) (*result, error) {
	res := &result{}
	histTxns, err := probeHistory(o, res)
	if err != nil {
		return nil, err
	}

	tr := newTracer(spanKeep)
	s, err := newSession(o, clusterConfig{tracer: tr})
	if err != nil {
		return nil, err
	}
	untraced := o.window - min(o.window/2, tracedMax)
	s.l.start()
	s.sleepUntil(o.warmup)
	a0 := s.c.counters(s.l)
	s.c.takeSyncs()
	s.sleepUntil(o.warmup + untraced)
	a1 := s.c.counters(s.l)
	syncs := s.c.takeSyncs()
	tr.on.Store(true)
	s.sleepUntil(o.warmup + o.window)
	tr.on.Store(false)
	b1 := s.c.counters(s.l)
	var syncB int64 // fsync wall time inside traced handlers
	for _, d := range s.c.takeSyncs() {
		syncB += d
	}
	s.finish(res)
	ts := tr.stats()

	spansPath := filepath.Join(o.out, "spans-"+o.w.name+".csv.gz")
	kept, err := tr.dump(spansPath)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	addLayerMetrics(res, s.l, a0, a1, b1, ts, syncs, syncB)
	res.add("trace.history_txns", float64(histTxns), "count")
	res.note("workload %s seed %d: %d spans traced, %d written to %s", o.w.name, o.seed, ts.spans, kept, spansPath)
	res.note("failed %d of %d submitted (shed, RO busy-shed, unfinished)", res.failed, res.attempted)
	return res, nil
}

// probeHistory runs the workload on a cluster with a history recorder (and
// the tracing wrappers on) until probeCommits transactions commit, then
// requires the recorded execution to be conflict-serializable.
func probeHistory(o runOptions, res *result) (int, error) {
	rec := history.NewRecorder()
	tr := newTracer(0)
	s, err := newSession(o, clusterConfig{recorder: rec, tracer: tr})
	if err != nil {
		return 0, err
	}
	tr.on.Store(true)
	s.l.start()
	deadline := time.Now().Add(probeTimeout)
	for s.l.commits.Load() < probeCommits && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.finish(res)
	chk := rec.Check()
	if !chk.Serializable {
		res.fail("recorded history of %d txns is not serializable: cycle %v", chk.Txns, chk.Cycle)
	}
	if chk.Txns < probeCommits {
		res.fail("history probe committed only %d of %d transactions in %v", chk.Txns, probeCommits, probeTimeout)
	}
	return chk.Txns, nil
}
