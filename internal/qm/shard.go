package qm

import (
	"fmt"
	"sync"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// shard is one partition of a site's queue manager: the data queues, lock
// state, counters, and group-commit batch for the items hashed to it
// (model.ShardOfItem). Each shard is independently lockable — operations on
// items in different shards never contend — which is what lets one site's
// conflict-free traffic execute in parallel when the shards run on separate
// mailbox goroutines.
type shard struct {
	m   *Manager
	idx int

	mu       sync.Mutex
	queues   map[model.ItemID]*dataQueue
	counters Counters
	// depthHigh is the deepest any of this shard's queues has ever been.
	depthHigh int

	// Versioned-placement transition state. pending seals items this site
	// gained at a map install until their snapshot transfer completes (new
	// openers get a busy NAK — the state is not here yet); retiring marks
	// items it lost whose queues still hold in-flight transactions (new
	// openers get the wrong-epoch NAK, residents drain to completion, and
	// the emptied queue deletes).
	pending  map[model.ItemID]bool
	retiring map[model.ItemID]bool

	dirty      bool // journaled writes await a sync
	flushArmed bool // a group-commit FlushMsg timer is pending for this shard
	down       bool // site crashed: messages defer until recovery
	deferred   []pendingMsg

	// One sync per backlog (a Durable attached, GroupCommitMicros == 0):
	// held are the sends this shard made while it had unsynced writes, in
	// send order, and holdLeft is how many more deliveries the batch may
	// stay open. release syncs once and then sends them all.
	held     []engine.Envelope
	holdLeft int
}

// onMessage handles one delivery for this shard. Crashed shards defer
// everything (durable message queues redeliver after a restart — the
// simulation's stand-in for the transport's reconnect-and-resend). own
// reports that the delivery came through this shard's own mailbox, the one
// whose backlog settle may wait on.
func (sh *shard) onMessage(ctx engine.Context, from engine.Addr, msg model.Message, own bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.down {
		// Deferred counts real protocol traffic held back by the outage; the
		// shard's own group-commit flush timers are deferred too but are not
		// traffic.
		if _, timer := msg.(model.FlushMsg); !timer {
			sh.counters.Deferred++
		}
		// The deferred list outlives this delivery, but the delivery layer
		// recycles pooled messages when OnMessage returns — hold a value copy.
		sh.deferred = append(sh.deferred, pendingMsg{from: from, msg: model.UnpoolMessage(msg)})
		return
	}
	sh.handle(ctx, from, msg)
	sh.settle(ctx, own)
}

// handle dispatches one message. Callers hold sh.mu. Pooled pointer forms
// deref to the value handlers — the pointer stays owned by the delivery
// layer, which recycles it after OnMessage returns, so handlers only ever
// see a stack copy.
func (sh *shard) handle(ctx engine.Context, from engine.Addr, msg model.Message) {
	switch v := msg.(type) {
	case model.RequestMsg:
		sh.onRequest(ctx, v)
	case *model.RequestMsg:
		sh.onRequest(ctx, *v)
	case model.FinalTSMsg:
		sh.onFinalTS(ctx, v)
	case *model.FinalTSMsg:
		sh.onFinalTS(ctx, *v)
	case model.ReleaseMsg:
		sh.onRelease(ctx, v)
	case *model.ReleaseMsg:
		sh.onRelease(ctx, *v)
	case model.AbortMsg:
		sh.onAbort(ctx, v)
	case *model.AbortMsg:
		sh.onAbort(ctx, *v)
	case model.SnapReadMsg:
		sh.onSnapRead(ctx, v)
	case *model.SnapReadMsg:
		sh.onSnapRead(ctx, *v)
	case model.FlushMsg:
		sh.onFlushTimer(ctx)
	default:
		sh.counters.Unexpected++
	}
}

// send is every send a shard makes. While one sync per backlog is open
// (writes journaled but not yet synced, or earlier sends still held) the
// send is held, in order, until release: nothing that could expose a write
// leaves the shard before that write is durable. Callers hold sh.mu.
func (sh *shard) send(ctx engine.Context, to engine.Addr, msg model.Message) {
	if len(sh.held) > 0 || sh.dirty && sh.m.opts.GroupCommitMicros == 0 {
		// The shard owns a held message until release hands it to ctx.Send
		// (or a crash recycles it).
		sh.held = append(sh.held, engine.Envelope{To: to, Msg: msg})
		return
	}
	ctx.Send(to, msg)
}

// journaled marks the shard dirty after a write reached the WAL buffer. The
// first write of a batch records how many messages wait behind the current
// delivery: that is how many more deliveries the batch may stay open.
func (sh *shard) journaled(ctx engine.Context) {
	if sh.m.dur == nil || sh.dirty {
		return
	}
	sh.dirty = true
	sh.holdLeft = ctx.Backlog()
}

// settle ends a delivery. While more messages wait in the shard's own
// mailbox, and fewer deliveries have passed than waited when the batch's
// first write was journaled, the batch stays open so the writes those
// messages implement share its sync. Otherwise the durability policy runs.
// Under the simulator Backlog is always 0, so every delivery ends synced,
// exactly as before batching existed.
func (sh *shard) settle(ctx engine.Context, own bool) {
	if own && sh.holdLeft > 0 && sh.m.opts.GroupCommitMicros == 0 && ctx.Backlog() > 0 {
		sh.holdLeft--
		return
	}
	sh.maybeFlush(ctx)
}

// maybeFlush is the commit-path durability policy: with no group-commit
// window the shard's journaled writes are synced now and its held sends
// released (one commit-sequencer pass, coalesced with concurrently flushing
// shards); with a window, the sync is deferred to a per-shard FlushMsg timer
// so concurrently committing transactions share it.
func (sh *shard) maybeFlush(ctx engine.Context) {
	if sh.m.dur == nil {
		return
	}
	if sh.m.opts.GroupCommitMicros > 0 && len(sh.held) == 0 {
		if sh.dirty && !sh.flushArmed {
			sh.flushArmed = true
			ctx.SetTimer(sh.m.opts.GroupCommitMicros, model.FlushMsg{Shard: int32(sh.idx)})
		}
		return
	}
	sh.release(ctx)
}

func (sh *shard) onFlushTimer(ctx engine.Context) {
	sh.flushArmed = false
	if sh.m.dur != nil {
		sh.release(ctx)
	}
}

// release drains this shard's dirty batch through the site's commit
// sequencer — it returns once every record the shard journaled before the
// call is durable, concurrent shards coalescing into one media sync — and
// then sends everything held behind the batch, in order.
func (sh *shard) release(ctx engine.Context) {
	if sh.dirty {
		if err := sh.m.seq.commit(); err != nil {
			// Losing the WAL means losing the durability contract; there is
			// no meaningful way to continue serving writes.
			panic(fmt.Sprintf("qm: site %d shard %d: wal flush: %v", sh.m.site, sh.idx, err))
		}
		sh.dirty = false
	}
	for i, e := range sh.held {
		ctx.Send(e.To, e.Msg)
		sh.held[i] = engine.Envelope{}
	}
	sh.held = sh.held[:0]
	sh.holdLeft = 0
}

// dropHeld discards the held sends at a crash: the writes they would have
// exposed are lost with the volatile tail.
func (sh *shard) dropHeld() {
	for i, e := range sh.held {
		model.RecycleMessage(e.Msg)
		sh.held[i] = engine.Envelope{}
	}
	sh.held = sh.held[:0]
	sh.holdLeft = 0
	sh.dirty = false
	sh.flushArmed = false
}

func (sh *shard) queue(item model.ItemID) *dataQueue {
	q := sh.queues[item]
	if q == nil {
		panic(fmt.Sprintf("qm: site %d shard %d has no queue for %v", sh.m.site, sh.idx, item))
	}
	return q
}

func (sh *shard) onRequest(ctx engine.Context, v model.RequestMsg) {
	sh.counters.Requests++
	if !sh.owns(v.Copy.Item) {
		// The issuer routed by a stale map (or raced an ownership flip, if
		// the item is mid-retirement here — new openers are refused either
		// way; only residents drain). The NAK carries the installed map.
		sh.wrongEpoch(ctx, v.Site, v.Txn, v.Attempt, v.Copy)
		return
	}
	if sh.pending[v.Copy.Item] {
		// Gained but not yet transferred: the authoritative state is still in
		// flight from the old owner. Busy is the right refusal — the routing
		// was correct, the issuer just needs to retry under backoff.
		sh.counters.Busy++
		sh.send(ctx, engine.RIAddr(v.Site), model.PooledBusy(model.BusyMsg{Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy}))
		return
	}
	q := sh.queue(v.Copy.Item)
	if bound := sh.m.opts.MaxQueueDepth; bound > 0 && len(q.entries) >= bound && q.find(v.Txn) == nil {
		// The queue is full and this transaction is not already resident:
		// refuse the request rather than queue without bound. The issuer
		// aborts the attempt and restarts it under backoff — shedding load
		// at the source instead of diverging here.
		sh.counters.Busy++
		sh.send(ctx, engine.RIAddr(v.Site), model.PooledBusy(model.BusyMsg{
			Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy,
		}))
		return
	}
	if old := q.find(v.Txn); old != nil {
		// A stale entry from a previous attempt whose abort raced ahead of
		// us cannot exist under FIFO delivery, but drop defensively.
		if old.attempt >= v.Attempt {
			return
		}
		if old.readRecorded && sh.m.recorder != nil {
			sh.m.recorder.Discard(q.copyID, old.txn)
		}
		q.remove(old)
		recycleEntry(old)
	}
	e := acquireEntry()
	e.txn = v.Txn
	e.attempt = v.Attempt
	e.protocol = v.Protocol
	e.kind = v.Kind
	e.prec = model.Precedence{
		Site:  v.Site,
		Txn:   v.Txn,
		Is2PL: v.Protocol == model.TwoPL,
	}
	out := q.admit(e, v.TS, v.Interval)
	if d := len(q.entries); d > sh.depthHigh {
		sh.depthHigh = d
	}
	issuer := engine.RIAddr(v.Site)
	switch {
	case out.rejected:
		// Rejected requests are never inserted: the entry goes straight back.
		recycleEntry(e)
		sh.counters.Rejects++
		sh.send(ctx, issuer, model.PooledReject(model.RejectMsg{
			Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy, Threshold: out.threshold,
		}))
	case out.backedOff:
		sh.counters.Backoffs++
		sh.send(ctx, issuer, model.PooledBackoff(model.BackoffMsg{
			Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy, NewTS: out.newTS,
		}))
	}
	sh.dispatch(ctx, q)
}

func (sh *shard) onFinalTS(ctx engine.Context, v model.FinalTSMsg) {
	q := sh.queues[v.Copy.Item]
	if q == nil {
		// The item moved away and its queue drained (or never lived here):
		// the completer path's wrong-epoch NAK, so a transaction straddling
		// an ownership flip learns its attempt died instead of hanging.
		sh.wrongEpoch(ctx, v.Txn.Site, v.Txn, v.Attempt, v.Copy)
		return
	}
	e := q.find(v.Txn)
	if e == nil || e.attempt != v.Attempt {
		return // attempt was aborted; stale message
	}
	if q.applyFinalTS(e, v.TS) {
		sh.counters.Revokes++
	}
	sh.dispatch(ctx, q)
}

func (sh *shard) onRelease(ctx engine.Context, v model.ReleaseMsg) {
	q := sh.queues[v.Copy.Item]
	if q == nil {
		sh.wrongEpoch(ctx, v.Txn.Site, v.Txn, v.Attempt, v.Copy) // see onFinalTS
		return
	}
	e := q.find(v.Txn)
	if e == nil || e.attempt != v.Attempt || !e.granted {
		return
	}
	if v.ToSemi {
		// §4.2 rule 4: the T/O transaction received a pre-scheduled lock;
		// its operations are implemented now, and the lock becomes a
		// semi-lock until every item has issued a normal grant.
		if !e.semi {
			sh.implement(ctx, e, v)
			q.toSemi(e)
			sh.counters.Conversion++
		}
		// The grants dispatch sends carry the value just implemented: with
		// a Durable attached they are held (sh.send) until the write is
		// synced, so a write another site observed cannot be lost by a
		// crash.
		sh.dispatch(ctx, q)
		return
	}
	if !e.semi {
		// Implemented at release (§4.3: 2PL/PA always; T/O when it received
		// no pre-scheduled lock and released directly).
		sh.implement(ctx, e, v)
	}
	q.remove(e)
	recycleEntry(e)
	sh.counters.Releases++
	sh.dispatch(ctx, q) // held behind the write's sync (see above)
	sh.maybeRetire(v.Copy.Item, q)
}

// onSnapRead serves a read-only snapshot read directly from the store's
// version chain: no queue entry, no lock, no threshold check, and therefore
// no way to be rejected, backed off, or deadlocked. The read is recorded in
// the history log at the position of the version it observed, so the
// serializability checker sees the true dataflow order.
func (sh *shard) onSnapRead(ctx engine.Context, v model.SnapReadMsg) {
	if !sh.owns(v.Copy.Item) {
		sh.wrongEpoch(ctx, v.Site, v.Txn, v.Attempt, v.Copy) // see onRequest
		return
	}
	if sh.pending[v.Copy.Item] {
		// Sealed mid-transfer: the version chain here is still the fresh
		// initial copy, not the moved history — refuse rather than serve a
		// stale snapshot.
		sh.counters.Busy++
		sh.send(ctx, engine.RIAddr(v.Site), model.PooledBusy(model.BusyMsg{Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy}))
		return
	}
	sh.counters.SnapReads++
	ver, exact := sh.m.store.ReadAt(v.Copy.Item, v.SnapMicros)
	if !exact {
		sh.counters.SnapStale++
	}
	if sh.m.recorder != nil {
		sh.m.recorder.ImplementedReadAt(model.CopyID{Item: v.Copy.Item, Site: sh.m.site}, v.Txn, ver.Version)
	}
	sh.send(ctx, engine.RIAddr(v.Site), model.PooledSnapReadReply(model.SnapReadReplyMsg{
		Txn:          v.Txn,
		Attempt:      v.Attempt,
		Copy:         v.Copy,
		Value:        ver.Value,
		Version:      ver.Version,
		CommitMicros: ver.CommitMicros,
		Exact:        exact,
	}))
}

// implement applies the operation to the store and the history log.
func (sh *shard) implement(ctx engine.Context, e *entry, v model.ReleaseMsg) {
	c := model.CopyID{Item: v.Copy.Item, Site: sh.m.site}
	if e.kind == model.OpWrite {
		if v.HasWrite {
			sh.m.store.Write(v.Copy.Item, e.txn, v.Value, v.CommitMicros) // journaled via the store's hook
			sh.journaled(ctx)
		}
		if sh.m.recorder != nil {
			sh.m.recorder.Implemented(c, e.txn, model.OpWrite)
		}
	} else if sh.m.recorder != nil && !e.readRecorded {
		sh.m.recorder.Implemented(c, e.txn, model.OpRead)
	}
}

func (sh *shard) onAbort(ctx engine.Context, v model.AbortMsg) {
	q := sh.queues[v.Copy.Item]
	if q == nil {
		sh.wrongEpoch(ctx, v.Txn.Site, v.Txn, v.Attempt, v.Copy) // see onFinalTS
		return
	}
	e := q.find(v.Txn)
	if e == nil || e.attempt != v.Attempt {
		return
	}
	if e.readRecorded && sh.m.recorder != nil {
		// The grant-time read never took effect; drop it from the log so it
		// cannot fabricate conflict edges.
		sh.m.recorder.Discard(q.copyID, e.txn)
	}
	q.remove(e)
	recycleEntry(e)
	sh.counters.Aborts++
	sh.dispatch(ctx, q)
	sh.maybeRetire(v.Copy.Item, q)
}

// dispatch grants every grantable head in sequence and then promotes
// pre-scheduled locks whose earlier conflicts have all been released.
func (sh *shard) dispatch(ctx engine.Context, q *dataQueue) {
	for {
		hd := q.head()
		if hd == nil {
			break
		}
		d := q.decide(hd)
		if !d.ok {
			break
		}
		q.grant(hd, d)
		sh.counters.Grants++
		if d.preSched {
			sh.counters.PreGrants++
		}
		if hd.protocol == model.TO && hd.kind == model.OpRead && sh.m.recorder != nil {
			// A T/O read is implemented at its grant: the SRL it receives
			// is already a semi-lock (§4.3) and the value travels with the
			// grant. Recording it at release would order it after any
			// pre-scheduled write that converts in between, inverting the
			// conflict edge relative to the actual dataflow.
			sh.m.recorder.Implemented(q.copyID, hd.txn, model.OpRead)
			hd.readRecorded = true
		}
		ver := sh.m.store.Latest(q.copyID.Item)
		sh.send(ctx, engine.RIAddr(hd.prec.Site), model.PooledGrant(model.GrantMsg{
			Txn:          hd.txn,
			Attempt:      hd.attempt,
			Copy:         q.copyID,
			Lock:         d.lock,
			PreScheduled: d.preSched,
			TS:           hd.prec.TS,
			Value:        ver.Value,
			Version:      ver.Version,
			CommitMicros: ver.CommitMicros,
		}))
	}
	for _, e := range q.promotable() {
		e.normalSent = true
		sh.counters.Promotions++
		sh.send(ctx, engine.RIAddr(e.prec.Site), model.PooledNormalGrant(model.NormalGrantMsg{
			Txn: e.txn, Attempt: e.attempt, Copy: q.copyID,
		}))
	}
}
