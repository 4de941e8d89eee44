package main

import (
	"time"
)

// counters is every cumulative counter the benchmark reads from the
// layers' public surfaces, taken at one instant.
type counters struct {
	at      int64 // ns since load start
	cpu     time.Duration
	gostats goStats
	commits int64
	// from the load
	submitted, attempts uint64
	// engine
	mailboxNAKs uint64
	mailboxHigh int
	// transport
	envelopes, flushes, bytesOut, dropped uint64
	// ri
	rejects, victims, shed, busyNAKs uint64
	// qm
	requests, snapReads, snapStale, qmBusy, backoffs uint64
	depthHigh                                        int
	// wal
	walSyncs, walBytes, groupCommits, groupSyncs uint64
	// storage
	pruned uint64
	// deadlock
	rounds, detVictims uint64
}

func (c *cluster) counters(l *load) counters {
	k := counters{at: l.now(), cpu: cpuTime(), gostats: readGoStats(), commits: l.commits.Load()}
	t := l.totals()
	k.submitted, k.attempts = t.submitted, t.attempts
	for _, s := range c.sites {
		naks, high := s.rt.MailboxStats()
		k.mailboxNAKs += naks
		k.mailboxHigh = max(k.mailboxHigh, high)
		env, fl := s.node.BatchStats()
		k.envelopes += env
		k.flushes += fl
		k.bytesOut += s.node.Wire().Snapshot().BytesOut
		dropped, _ := s.node.QueueStats()
		k.dropped += dropped
		is := s.iss.Snapshot()
		k.rejects += is.Rejects
		k.victims += is.Victims
		k.shed += is.Shed
		k.busyNAKs += is.BusyNAKs
		q := s.mgr.Snapshot()
		k.requests += q.Requests
		k.snapReads += q.SnapReads
		k.snapStale += q.SnapStale
		k.qmBusy += q.Busy
		k.backoffs += q.Backoffs
		k.depthHigh = max(k.depthHigh, s.mgr.DepthHighWater())
		if s.media != nil {
			k.walSyncs += s.media.syncs.Load()
			k.walBytes += s.media.bytes.Load()
			gc, gs := s.log.GroupStats()
			k.groupCommits += gc
			k.groupSyncs += gs
		}
		k.pruned += s.store.Pruned()
		if s.det != nil {
			ds := s.det.Snapshot()
			k.rounds += ds.Rounds
			k.detVictims += ds.Victims
		}
	}
	return k
}

func (c *cluster) takeSyncs() []int64 {
	var out []int64
	for _, s := range c.sites {
		if s.media != nil {
			out = append(out, s.media.takeSyncs()...)
		}
	}
	return out
}

// addLayerMetrics reports the per-layer metrics of a traced run. Counter
// metrics cover the untraced part [a0, a1); span metrics ("busy", "wait",
// msgs_per_commit, unattributed CPU) cover the traced part [a1, b1).
func addLayerMetrics(res *result, l *load, a0, a1, b1 counters, ts traceStats, syncs []int64, syncB int64) {
	n := float64(a1.commits - a0.commits) // commits, untraced part
	per := func(d uint64) float64 { return ratio(float64(d), n) }
	perK := func(d uint64) float64 { return ratio(1000*float64(d), n) }
	nb := float64(b1.commits - a1.commits) // commits, traced part
	perB := func(ns int64) float64 { return ratio(float64(ns)/1e3, nb) }
	secsA := time.Duration(a1.at - a0.at).Seconds()
	secsB := time.Duration(b1.at - a1.at).Seconds()

	res.add("engine.local_wait_p50_us", us(quantile(ts.localWait, 0.5)), "us")
	res.add("engine.local_wait_p99_us", us(quantile(ts.localWait, 0.99)), "us")
	res.add("engine.mailbox_naks", float64(a1.mailboxNAKs-a0.mailboxNAKs), "count")
	res.add("engine.mailbox_high_water", float64(b1.mailboxHigh), "count")

	res.add("transport.remote_wait_p50_us", us(quantile(ts.remoteWait, 0.5)), "us")
	res.add("transport.remote_wait_p99_us", us(quantile(ts.remoteWait, 0.99)), "us")
	res.add("transport.envelopes_per_commit", per(a1.envelopes-a0.envelopes), "count")
	res.add("transport.bytes_per_commit", per(a1.bytesOut-a0.bytesOut), "B")
	res.add("transport.envelopes_per_flush", ratio(float64(a1.envelopes-a0.envelopes), float64(a1.flushes-a0.flushes)), "count")
	res.add("transport.dropped", float64(a1.dropped-a0.dropped), "count")

	_, ro, locked, lags := l.window(a0.at, a1.at)
	res.add("ri.busy_us_per_commit", perB(ts.busy[layerRI]), "us")
	res.add("ri.attempts_per_commit", per(a1.attempts-a0.attempts), "count")
	res.add("ri.rejects_per_kcommit", perK(a1.rejects-a0.rejects), "count")
	res.add("ri.victims_per_kcommit", perK(a1.victims-a0.victims), "count")
	res.add("ri.backoffs_per_kcommit", perK(a1.backoffs-a0.backoffs), "count")
	res.add("ri.shed", float64(a1.shed-a0.shed), "count")
	res.add("ri.busy_naks", float64(a1.busyNAKs-a0.busyNAKs), "count")
	res.add("ri.locked_p50_us", float64(quantile(locked, 0.5)), "us")
	res.add("ri.locked_p99_us", float64(quantile(locked, 0.99)), "us")
	res.add("ri.ro_commit_p50_us", us(quantile(ro, 0.5)), "us")
	res.add("ri.ro_commit_p99_us", us(quantile(ro, 0.99)), "us")

	res.add("qm.busy_us_per_commit", perB(ts.busy[layerQM]), "us")
	res.add("qm.msgs_per_commit", ratio(float64(ts.handled[layerQM]), nb), "count")
	res.add("qm.grant_wait_p50_us", us(quantile(ts.grantWait, 0.5)), "us")
	res.add("qm.grant_wait_p99_us", us(quantile(ts.grantWait, 0.99)), "us")
	res.add("qm.requests_per_commit", per(a1.requests-a0.requests), "count")
	res.add("qm.snap_reads_per_commit", per(a1.snapReads-a0.snapReads), "count")
	res.add("qm.snap_stale", float64(a1.snapStale-a0.snapStale), "count")
	res.add("qm.depth_high_water", float64(b1.depthHigh), "count")
	res.add("qm.busy_naks", float64(a1.qmBusy-a0.qmBusy), "count")

	res.add("wal.syncs_per_commit", per(a1.walSyncs-a0.walSyncs), "count")
	res.add("wal.commits_per_sync", ratio(float64(a1.groupCommits-a0.groupCommits), float64(a1.groupSyncs-a0.groupSyncs)), "count")
	res.add("wal.sync_p50_us", us(quantile(syncs, 0.5)), "us")
	res.add("wal.sync_p99_us", us(quantile(syncs, 0.99)), "us")
	res.add("wal.bytes_per_commit", per(a1.walBytes-a0.walBytes), "B")

	res.add("storage.pruned_per_commit", per(a1.pruned-a0.pruned), "count")

	res.add("deadlock.busy_us_per_commit", perB(ts.busy[layerDetector]), "us")
	res.add("deadlock.victims", float64(a1.detVictims-a0.detVictims), "count")
	res.add("deadlock.rounds", float64(a1.rounds-a0.rounds), "count")

	res.add("metrics.busy_us_per_commit", perB(ts.busy[layerCollector]), "us")

	// Handler busy time is wall time: take out the fsyncs it waited on, so
	// that what remains approximates the CPU the handlers used.
	handlers := -syncB
	for _, b := range ts.busy {
		handlers += b
	}
	res.add("proc.allocs_per_commit", per(a1.gostats.allocs-a0.gostats.allocs), "count")
	res.add("proc.gc_cpu_frac", ratio(a1.gostats.gcCPU-a0.gostats.gcCPU, a1.gostats.allCPU-a0.gostats.allCPU), "frac")
	res.add("proc.unattributed_cpu_us_per_commit", perB(int64(b1.cpu-a1.cpu)-handlers), "us")

	res.add("gen.offered_tps", ratio(float64(a1.submitted-a0.submitted), secsA), "1/s")
	res.add("gen.lag_p50_us", us(quantile(lags, 0.5)), "us")
	res.add("gen.lag_p99_us", us(quantile(lags, 0.99)), "us")

	tpsA, tpsB := ratio(n, secsA), ratio(nb, secsB)
	res.add("trace.untraced_commit_tps", tpsA, "1/s")
	res.add("trace.traced_commit_tps", tpsB, "1/s")
	res.add("trace.overhead_frac", ratio(tpsA-tpsB, tpsA), "frac")
	res.add("trace.unmatched_frac", ratio(float64(ts.unmatched), float64(ts.matched+ts.unmatched)), "frac")
	res.add("trace.spans", float64(ts.spans), "count")
}
