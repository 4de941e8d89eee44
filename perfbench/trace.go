package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// Layers a span can belong to: the kind of actor that handled the message.
const (
	layerRI uint8 = iota
	layerQM
	layerDetector
	layerCollector
	numLayers
)

var layerNames = [numLayers]string{"ri", "qm", "deadlock", "metrics"}

func layerOf(a engine.Addr) uint8 {
	switch a.Kind {
	case engine.KindRI:
		return layerRI
	case engine.KindQM:
		return layerQM
	case engine.KindDetector:
		return layerDetector
	default:
		return layerCollector
	}
}

// Message kinds recorded in spans and used to match a delivery to its send.
const (
	kindOther uint8 = iota
	kindSubmit
	kindRequest
	kindFinalTS
	kindRelease
	kindAbort
	kindGrant
	kindNormalGrant
	kindReject
	kindBackoff
	kindBusy
	kindVictim
	kindSnapRead
	kindSnapReadReply
	kindProbe
	kindReport
	kindDone
	kindStats
	kindTick
	kindCompute
	kindRestart
	kindStop
	kindFlush
	numKinds
)

var kindNames = [numKinds]string{
	"other", "submit", "request", "final_ts", "release", "abort", "grant", "normal_grant",
	"reject", "backoff", "busy", "victim", "snap_read", "snap_reply", "probe", "report",
	"done", "stats", "tick", "compute_done", "restart", "stop", "flush",
}

// msgID is what the tracer copies out of a message: its kind and the
// transaction, attempt and copy it concerns. Pooled messages are only ever
// read for these fields, never retained.
type msgID struct {
	kind    uint8
	txn     model.TxnID
	attempt model.Attempt
	copy    model.CopyID
}

func describe(m model.Message) msgID {
	switch v := m.(type) {
	case model.SubmitTxnMsg:
		return msgID{kind: kindSubmit, txn: v.Txn.ID}
	case model.RequestMsg:
		return msgID{kindRequest, v.Txn, v.Attempt, v.Copy}
	case *model.RequestMsg:
		return msgID{kindRequest, v.Txn, v.Attempt, v.Copy}
	case model.FinalTSMsg:
		return msgID{kindFinalTS, v.Txn, v.Attempt, v.Copy}
	case *model.FinalTSMsg:
		return msgID{kindFinalTS, v.Txn, v.Attempt, v.Copy}
	case model.ReleaseMsg:
		return msgID{kindRelease, v.Txn, v.Attempt, v.Copy}
	case *model.ReleaseMsg:
		return msgID{kindRelease, v.Txn, v.Attempt, v.Copy}
	case model.AbortMsg:
		return msgID{kindAbort, v.Txn, v.Attempt, v.Copy}
	case *model.AbortMsg:
		return msgID{kindAbort, v.Txn, v.Attempt, v.Copy}
	case model.GrantMsg:
		return msgID{kindGrant, v.Txn, v.Attempt, v.Copy}
	case *model.GrantMsg:
		return msgID{kindGrant, v.Txn, v.Attempt, v.Copy}
	case model.NormalGrantMsg:
		return msgID{kindNormalGrant, v.Txn, v.Attempt, v.Copy}
	case *model.NormalGrantMsg:
		return msgID{kindNormalGrant, v.Txn, v.Attempt, v.Copy}
	case model.RejectMsg:
		return msgID{kindReject, v.Txn, v.Attempt, v.Copy}
	case *model.RejectMsg:
		return msgID{kindReject, v.Txn, v.Attempt, v.Copy}
	case model.BackoffMsg:
		return msgID{kindBackoff, v.Txn, v.Attempt, v.Copy}
	case *model.BackoffMsg:
		return msgID{kindBackoff, v.Txn, v.Attempt, v.Copy}
	case model.BusyMsg:
		return msgID{kindBusy, v.Txn, v.Attempt, v.Copy}
	case *model.BusyMsg:
		return msgID{kindBusy, v.Txn, v.Attempt, v.Copy}
	case model.SnapReadMsg:
		return msgID{kindSnapRead, v.Txn, v.Attempt, v.Copy}
	case *model.SnapReadMsg:
		return msgID{kindSnapRead, v.Txn, v.Attempt, v.Copy}
	case model.SnapReadReplyMsg:
		return msgID{kindSnapReadReply, v.Txn, v.Attempt, v.Copy}
	case *model.SnapReadReplyMsg:
		return msgID{kindSnapReadReply, v.Txn, v.Attempt, v.Copy}
	case model.VictimMsg:
		return msgID{kind: kindVictim, txn: v.Txn, attempt: v.Attempt}
	case model.ComputeDoneMsg:
		return msgID{kind: kindCompute, txn: v.Txn, attempt: v.Attempt}
	case model.RestartMsg:
		return msgID{kind: kindRestart, txn: v.Txn, attempt: v.Attempt}
	case model.TxnDoneMsg:
		return msgID{kind: kindDone, txn: v.Txn}
	case model.ProbeWFGMsg:
		return msgID{kind: kindProbe}
	case model.WFGReportMsg:
		return msgID{kind: kindReport}
	case model.QueueStatsMsg:
		return msgID{kind: kindStats}
	case model.TickMsg:
		return msgID{kind: kindTick}
	case model.StopMsg:
		return msgID{kind: kindStop}
	case model.FlushMsg:
		return msgID{kind: kindFlush}
	default:
		return msgID{kind: kindOther}
	}
}

// stamp marks one send on a (sender, receiver) pair, or one timer: the span
// that caused it, when it was sent (or, for a timer, when it is due) and
// enough of the message to recognise its delivery.
type stamp struct {
	parent uint64
	at     int64
	kind   uint8
	txn    model.TxnID
	remote bool
}

// fifo holds the stamps of one (sender, receiver) pair in send order. The
// runtime's pair queues and a TCP connection both deliver in that order, so
// a delivery matches the oldest stamp of its kind and transaction; stamps
// skipped on the way belong to messages that were never delivered (a full
// mailbox or a dropped send answered with a NAK instead).
type fifo struct {
	mu   sync.Mutex
	q    []stamp
	head int
}

// lookahead bounds how far past the head a delivery searches for its stamp.
const lookahead = 16

func (f *fifo) push(s stamp) {
	f.mu.Lock()
	f.q = append(f.q, s)
	f.mu.Unlock()
}

func (f *fifo) pop(kind uint8, txn model.TxnID) (s stamp, ok bool, skipped int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := f.head; i < len(f.q) && i < f.head+lookahead; i++ {
		if f.q[i].kind == kind && f.q[i].txn == txn {
			s, skipped = f.q[i], i-f.head
			f.head = i + 1
			if f.head*2 >= len(f.q) {
				// Reuse the front of the array once the consumed prefix is
				// at least half of it: a busy pair is rarely empty, and the
				// queue must not grow with every stamp ever pushed.
				f.q = f.q[:copy(f.q, f.q[f.head:])]
				f.head = 0
			}
			return s, true, skipped
		}
	}
	return stamp{}, false, 0
}

type pairKey struct{ from, to engine.Addr }

type timerKey struct {
	kind uint8
	txn  model.TxnID
}

type grantKey struct {
	txn     model.TxnID
	attempt model.Attempt
	copy    model.CopyID
}

// span is one handled message.
type span struct {
	id, parent uint64
	txn        model.TxnID
	start, end int64 // ns since the tracer's epoch
	site       model.SiteID
	layer      uint8
	kind       uint8
}

// tracer wraps every registered actor and its engine.Context. While on, each
// handled message becomes a span whose parent is found through the pair's
// FIFO of send stamps; while off, the wrappers pass straight through.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	// keep bounds the spans held in memory for the dump; metrics cover
	// every span regardless.
	keep int64
	kept atomic.Int64

	mu     sync.Mutex
	fifos  map[pairKey]*fifo
	actors []*tracedActor
}

func newTracer(keep int64) *tracer {
	return &tracer{epoch: time.Now(), keep: keep, fifos: map[pairKey]*fifo{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) fifo(from, to engine.Addr) *fifo {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := pairKey{from, to}
	f := t.fifos[k]
	if f == nil {
		f = &fifo{}
		t.fifos[k] = f
	}
	return f
}

// posted stamps a message the benchmark itself originates with
// Runtime.Post; call it before the Post. Its span has no parent.
func (t *tracer) posted(from, to engine.Addr, msg model.Message) {
	if t == nil || !t.on.Load() {
		return
	}
	id := describe(msg)
	t.fifo(from, to).push(stamp{at: t.now(), kind: id.kind, txn: id.txn})
}

func (t *tracer) wrap(site model.SiteID, addr engine.Addr, inner engine.Actor) engine.Actor {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &tracedActor{
		t:      t,
		site:   site,
		addr:   addr,
		layer:  layerOf(addr),
		inner:  inner,
		idBase: uint64(len(t.actors)+1) << 40,
		out:    map[engine.Addr]*fifo{},
		in:     map[engine.Addr]*fifo{},
		timers: map[timerKey][]stamp{},
		reqAt:  map[grantKey]int64{},
	}
	a.ctx.a = a
	t.actors = append(t.actors, a)
	return a
}

// tracedActor is the wrapper around one registered actor. Everything but
// the tracer's shared state is touched only from the actor's own mailbox
// goroutine, so it needs no lock.
type tracedActor struct {
	t      *tracer
	site   model.SiteID
	addr   engine.Addr
	layer  uint8
	inner  engine.Actor
	ctx    tracedCtx
	idBase uint64
	seq    uint64
	cur    uint64 // span being handled

	out    map[engine.Addr]*fifo // by receiver
	in     map[engine.Addr]*fifo // by sender
	timers map[timerKey][]stamp
	reqAt  map[grantKey]int64 // QM: when each pending request was handled

	busy                     int64 // ns inside handlers
	handled                  int64
	matched, unmatched, lost int64
	localWait, remoteWait    []int32 // ns, send → handler start
	grantWait                []int32 // ns, request handled → grant sent
	spans                    []span
}

// OnMessage implements engine.Actor.
func (a *tracedActor) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	if !a.t.on.Load() {
		a.inner.OnMessage(ctx, from, msg)
		return
	}
	start := a.t.now()
	id := describe(msg)
	st, ok, timer := a.match(from, id)
	a.seq++
	a.cur = a.idBase | a.seq
	if ok {
		a.matched++
		if !timer {
			w := clamp32(start - st.at)
			if st.remote {
				a.remoteWait = append(a.remoteWait, w)
			} else {
				a.localWait = append(a.localWait, w)
			}
		}
	} else {
		a.unmatched++
	}
	if a.layer == layerQM {
		switch id.kind {
		case kindRequest:
			a.reqAt[grantKey{id.txn, id.attempt, id.copy}] = start
		case kindAbort:
			delete(a.reqAt, grantKey{id.txn, id.attempt, id.copy})
		}
	}
	a.ctx.Context = ctx
	a.inner.OnMessage(&a.ctx, from, msg)
	end := a.t.now()
	a.busy += end - start
	a.handled++
	if a.t.kept.Add(1) <= a.t.keep {
		a.spans = append(a.spans, span{
			id: a.cur, parent: st.parent, txn: id.txn, start: start, end: end,
			site: a.site, layer: a.layer, kind: id.kind,
		})
	}
}

// match finds the stamp of a delivery: a timer the actor set itself, else
// the oldest matching send on the (from, self) pair.
func (a *tracedActor) match(from engine.Addr, id msgID) (st stamp, ok, timer bool) {
	if from == a.addr {
		k := timerKey{id.kind, id.txn}
		if q := a.timers[k]; len(q) > 0 {
			st = q[0]
			if len(q) == 1 {
				delete(a.timers, k)
			} else {
				a.timers[k] = q[1:]
			}
			return st, true, true
		}
	}
	f := a.in[from]
	if f == nil {
		f = a.t.fifo(from, a.addr)
		a.in[from] = f
	}
	st, ok, skipped := f.pop(id.kind, id.txn)
	a.lost += int64(skipped)
	return st, ok, false
}

// siteOf returns the site hosting an address from this actor's point of
// view: collectors and drivers are local to every site.
func (a *tracedActor) siteOf(to engine.Addr) model.SiteID {
	switch to.Kind {
	case engine.KindRI, engine.KindQM:
		return to.ID
	case engine.KindDetector:
		return 0
	default:
		return a.site
	}
}

func (a *tracedActor) onSend(to engine.Addr, msg model.Message) {
	id := describe(msg)
	now := a.t.now()
	if a.layer == layerQM {
		switch id.kind {
		case kindGrant:
			k := grantKey{id.txn, id.attempt, id.copy}
			if t0, ok := a.reqAt[k]; ok {
				a.grantWait = append(a.grantWait, clamp32(now-t0))
				delete(a.reqAt, k)
			}
		case kindReject, kindBusy:
			delete(a.reqAt, grantKey{id.txn, id.attempt, id.copy})
		}
	}
	f := a.out[to]
	if f == nil {
		f = a.t.fifo(a.addr, to)
		a.out[to] = f
	}
	f.push(stamp{parent: a.cur, at: now, kind: id.kind, txn: id.txn, remote: a.siteOf(to) != a.site})
}

func (a *tracedActor) onTimer(delayMicros int64, msg model.Message) {
	id := describe(msg)
	k := timerKey{id.kind, id.txn}
	a.timers[k] = append(a.timers[k], stamp{parent: a.cur, at: a.t.now() + delayMicros*1000, kind: id.kind, txn: id.txn})
}

// tracedCtx is the engine.Context a traced handler sees: sends and timers
// are stamped, then passed to the runtime's own context.
type tracedCtx struct {
	engine.Context
	a *tracedActor
}

func (c *tracedCtx) Send(to engine.Addr, msg model.Message) {
	c.a.onSend(to, msg)
	c.Context.Send(to, msg)
}

func (c *tracedCtx) SetTimer(delayMicros int64, msg model.Message) {
	c.a.onTimer(delayMicros, msg)
	c.Context.SetTimer(delayMicros, msg)
}

// traceStats aggregates the wrappers. Call it only after the runtimes have
// shut down (their WaitGroups order every handler's writes before it).
type traceStats struct {
	busy                     [numLayers]int64
	handled                  [numLayers]int64
	matched, unmatched, lost int64
	localWait, remoteWait    []int64
	grantWait                []int64
	spans                    int64
}

func (t *tracer) stats() traceStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s traceStats
	for _, a := range t.actors {
		s.busy[a.layer] += a.busy
		s.handled[a.layer] += a.handled
		s.matched += a.matched
		s.unmatched += a.unmatched
		s.lost += a.lost
		s.localWait = appendNs(s.localWait, a.localWait)
		s.remoteWait = appendNs(s.remoteWait, a.remoteWait)
		s.grantWait = appendNs(s.grantWait, a.grantWait)
		s.spans += a.handled
	}
	return s
}

func appendNs(dst []int64, src []int32) []int64 {
	for _, v := range src {
		dst = append(dst, int64(v))
	}
	return dst
}

// dump writes the kept spans as gzipped CSV, one line per handled message.
func (t *tracer) dump(path string) (n int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,site,layer,msg,txn_site,txn_seq,start_ns,end_ns")
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.actors {
		for _, s := range a.spans {
			fmt.Fprintf(bw, "%d,%d,%d,%s,%s,%d,%d,%d,%d\n", s.id, s.parent, s.site,
				layerNames[s.layer], kindNames[s.kind], s.txn.Site, s.txn.Seq, s.start, s.end)
			n++
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	return n, zw.Close()
}
