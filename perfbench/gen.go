package main

import (
	"sync"
	"sync/atomic"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// sample is one committed transaction as the benchmark saw it, in µs.
type sample struct {
	done   int32 // since load start, when its TxnDoneMsg was observed
	lat    int32 // from submit (closed loop) or due time (open loop)
	locked int32 // TxnDoneMsg.LockedMicros (zero for RO)
	ro     bool
}

// lagSample is one submission's lateness: Post time minus due time.
type lagSample struct {
	at  int32 // µs since load start
	lag int32 // ns
}

// chunked is an append-only sequence kept in fixed-size chunks: growing it
// never copies what it holds, so recording a sample never stalls the
// goroutine that records it (a doubling copy of a large slice would, in the
// middle of the measured window).
type chunked[T any] struct{ chunks [][]T }

const chunkLen = 1 << 14

func (c *chunked[T]) add(v T) {
	n := len(c.chunks)
	if n == 0 || len(c.chunks[n-1]) == chunkLen {
		c.chunks = append(c.chunks, make([]T, 0, chunkLen))
		n++
	}
	c.chunks[n-1] = append(c.chunks[n-1], v)
}

func (c *chunked[T]) each(f func(T)) {
	for _, ch := range c.chunks {
		for _, v := range ch {
			f(v)
		}
	}
}

// clamp32 converts a duration count to int32, saturating.
func clamp32(v int64) int32 {
	return int32(max(min(v, 1<<31-1), -1<<31))
}

// pending is a submitted transaction that has not yet reached a terminal
// outcome.
type pending struct {
	start  int64 // ns since load start: due time (open) or submit time (closed)
	writes []model.ItemID
	ro     bool
}

// siteLoad is the generator and bookkeeping for one site. Its fields are
// guarded by mu: the open-loop generator, the main goroutine and the site's
// collector mailbox goroutine all reach them.
type siteLoad struct {
	site model.SiteID
	rt   *engine.Runtime

	mu       sync.Mutex
	src      *txnSource
	open     map[uint64]pending // by TxnID.Seq
	expected []int64            // +1 per committed write, by item
	samples  chunked[sample]
	lags     chunked[lagSample]
	// refill keeps the closed loop going: each terminal outcome submits
	// the site's next transaction.
	refill bool

	submitted, committed, attempts, shed, roBusy, unknown uint64
}

// load drives one cluster with one workload.
type load struct {
	w       workload
	tr      *tracer // nil unless the cluster is traced
	t0      time.Time
	sites   []*siteLoad
	commits atomic.Int64 // committed since load start, all sites
	// stop ends the open-loop generator; gen is closed when it has exited.
	stop chan struct{}
	gen  chan struct{}
	// sched is the open loop's schedule: each site's next due time.
	sched struct {
		mu   sync.Mutex
		on   bool
		next []int64
	}
}

func newLoad(w workload, seed int64, c *cluster) *load {
	l := &load{w: w, stop: make(chan struct{}), gen: make(chan struct{})}
	for _, s := range c.sites {
		l.sites = append(l.sites, &siteLoad{
			site:     s.id,
			rt:       s.rt,
			src:      newTxnSource(w, seed, s.id),
			open:     map[uint64]pending{},
			expected: make([]int64, numItems),
		})
	}
	for i, s := range c.sites {
		s.obs.bind(l, l.sites[i])
	}
	return l
}

func (l *load) now() int64 { return int64(time.Since(l.t0)) }

// start begins generating load: the closed loop fills every site's
// concurrency, the open loop starts its schedule goroutine.
func (l *load) start() {
	l.t0 = time.Now()
	if l.w.closedPerSite > 0 {
		close(l.gen)
		for _, s := range l.sites {
			s.mu.Lock()
			s.refill = true
			s.mu.Unlock()
			for i := 0; i < l.w.closedPerSite; i++ {
				l.submit(s, l.now())
			}
		}
		return
	}
	go l.openLoop()
}

// halt stops generating new transactions and waits for the generator.
func (l *load) halt() {
	for _, s := range l.sites {
		s.mu.Lock()
		s.refill = false
		s.mu.Unlock()
	}
	l.sched.mu.Lock()
	l.sched.on = false
	l.sched.mu.Unlock()
	close(l.stop)
	<-l.gen
}

// submit draws the site's next transaction and posts it to the site's
// request issuer. due is when the submission was due (ns since load start);
// an open-loop transaction's latency runs from it.
func (l *load) submit(s *siteLoad, due int64) {
	s.mu.Lock()
	t := s.src.next()
	p := pending{writes: t.WriteSet, ro: t.Protocol == model.ROSnapshot}
	now := l.now()
	if l.w.closedPerSite > 0 {
		p.start = now
	} else {
		p.start = due
	}
	s.open[t.ID.Seq] = p
	s.submitted++
	s.lags.add(lagSample{at: clamp32(now / 1e3), lag: clamp32(now - due)})
	s.mu.Unlock()
	// Post, not Inject: the generator originates traffic like any client.
	env := engine.Envelope{From: engine.DriverAddr(s.site), To: engine.RIAddr(s.site), Msg: model.SubmitTxnMsg{Txn: t}}
	l.tr.posted(env.From, env.To, env.Msg)
	s.rt.Post(env)
}

// openLoop posts every site's Poisson arrivals on an absolute schedule
// drawn from the seed: due times never drift with the generator's own
// lateness, and each transaction is timed from its due time. A Go timer
// fires up to a millisecond late when the process is otherwise idle, which
// would post the arrivals in bunches; so every observed completion also
// posts whatever has fallen due (postDue), and the timer covers the gaps.
func (l *load) openLoop() {
	defer close(l.gen)
	l.sched.mu.Lock()
	l.sched.next = make([]int64, len(l.sites))
	for i, s := range l.sites {
		s.mu.Lock()
		l.sched.next[i] = s.src.gap()
		s.mu.Unlock()
	}
	l.sched.on = true
	l.sched.mu.Unlock()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		timer.Reset(time.Duration(l.postDue()))
		select {
		case <-l.stop:
			return
		case <-timer.C:
		}
	}
}

// postDue posts every open-loop arrival that has fallen due and returns the
// time until the next one.
func (l *load) postDue() int64 {
	l.sched.mu.Lock()
	defer l.sched.mu.Unlock()
	if !l.sched.on {
		return int64(time.Hour)
	}
	for {
		i := 0
		for j := range l.sched.next {
			if l.sched.next[j] < l.sched.next[i] {
				i = j
			}
		}
		if d := l.sched.next[i] - l.now(); d > 0 {
			return d
		}
		s := l.sites[i]
		l.submit(s, l.sched.next[i])
		s.mu.Lock()
		l.sched.next[i] += s.src.gap()
		s.mu.Unlock()
	}
}

// onDone records a TxnDoneMsg. Terminal outcomes are a commit, an
// admission shed, and a busy NAK of a read-only snapshot transaction (the
// fast path has no restarts); every other outcome is one failed read-write
// attempt that the issuer retries.
func (l *load) onDone(s *siteLoad, d model.TxnDoneMsg) {
	now := l.now()
	s.mu.Lock()
	p, ok := s.open[d.Txn.Seq]
	if !ok || d.Txn.Site != s.site {
		s.unknown++
		s.mu.Unlock()
		return
	}
	terminal, committed := true, false
	switch {
	case d.Outcome == model.OutcomeCommitted:
		committed = true
		s.committed++
		s.attempts++
		for _, it := range p.writes {
			s.expected[it]++
		}
		smp := sample{done: clamp32(now / 1e3), lat: clamp32((now - p.start) / 1e3), ro: p.ro}
		if !p.ro {
			smp.locked = clamp32(d.LockedMicros)
		}
		s.samples.add(smp)
	case d.Outcome == model.OutcomeShed:
		s.shed++
	case p.ro && d.Outcome == model.OutcomeBusy:
		s.attempts++
		s.roBusy++
	default:
		s.attempts++
		terminal = false
	}
	if terminal {
		delete(s.open, d.Txn.Seq)
	}
	refill := terminal && s.refill
	s.mu.Unlock()
	if committed {
		l.commits.Add(1)
	}
	if refill {
		l.submit(s, l.now())
	}
	if l.w.closedPerSite == 0 {
		l.postDue()
	}
}

// totals sums the per-site counters.
type totals struct {
	submitted, committed, attempts, shed, roBusy, unknown, open uint64
}

func (l *load) totals() totals {
	var t totals
	for _, s := range l.sites {
		s.mu.Lock()
		t.submitted += s.submitted
		t.committed += s.committed
		t.attempts += s.attempts
		t.shed += s.shed
		t.roBusy += s.roBusy
		t.unknown += s.unknown
		t.open += uint64(len(s.open))
		s.mu.Unlock()
	}
	return t
}

// expected returns the per-item commit counts summed over sites.
func (l *load) expected() []int64 {
	out := make([]int64, numItems)
	for _, s := range l.sites {
		s.mu.Lock()
		for i, n := range s.expected {
			out[i] += n
		}
		s.mu.Unlock()
	}
	return out
}

// window collects, for the commits observed in [from, to) (ns since load
// start), their RW and RO latencies (ns) and RW lock times (µs), and the
// lateness (ns) of the submissions made in that interval.
func (l *load) window(from, to int64) (rw, ro, locked, lags []int64) {
	from, to = from/1e3, to/1e3
	for _, s := range l.sites {
		s.mu.Lock()
		s.samples.each(func(x sample) {
			if int64(x.done) < from || int64(x.done) >= to {
				return
			}
			if x.ro {
				ro = append(ro, int64(x.lat)*1e3)
			} else {
				rw = append(rw, int64(x.lat)*1e3)
				locked = append(locked, int64(x.locked))
			}
		})
		s.lags.each(func(x lagSample) {
			if int64(x.at) >= from && int64(x.at) < to {
				lags = append(lags, int64(x.lag))
			}
		})
		s.mu.Unlock()
	}
	return rw, ro, locked, lags
}

// observer sits in front of a site's metrics collector: it hands every
// TxnDoneMsg to the load before the collector sees it.
type observer struct {
	next  engine.Actor
	bound atomic.Pointer[binding]
}

type binding struct {
	load *load
	site *siteLoad
}

func (o *observer) bind(l *load, s *siteLoad) { o.bound.Store(&binding{load: l, site: s}) }

// OnMessage implements engine.Actor.
func (o *observer) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	if d, ok := msg.(model.TxnDoneMsg); ok {
		if b := o.bound.Load(); b != nil {
			b.load.onDone(b.site, d)
		}
	}
	o.next.OnMessage(ctx, from, msg)
}
