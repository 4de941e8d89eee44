package qm

import (
	"math/rand"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/history"
	"ucc/internal/model"
	"ucc/internal/storage"
)

// fakeCtx implements engine.Context and captures sends. backlog is what
// Backlog reports: the messages a runtime mailbox would hold behind the
// current delivery.
type fakeCtx struct {
	now     int64
	self    engine.Addr
	sent    []engine.Envelope
	rng     *rand.Rand
	backlog int
}

func newFakeCtx() *fakeCtx {
	return &fakeCtx{self: engine.QMAddr(0), rng: rand.New(rand.NewSource(1))}
}

func (c *fakeCtx) NowMicros() int64  { return c.now }
func (c *fakeCtx) Self() engine.Addr { return c.self }
func (c *fakeCtx) Rand() *rand.Rand  { return c.rng }
func (c *fakeCtx) Send(to engine.Addr, msg model.Message) {
	// The fake context is its own delivery layer: capture a value copy so the
	// take[M] matchers see value forms, and recycle the pooled pointer right
	// away (ownership transfers at Send; the shard never touches it again).
	c.sent = append(c.sent, engine.Envelope{From: c.self, To: to, Msg: model.UnpoolMessage(msg)})
	model.RecycleMessage(msg)
}
func (c *fakeCtx) SetTimer(delay int64, msg model.Message) {
	c.sent = append(c.sent, engine.Envelope{From: c.self, To: c.self, Msg: msg})
}
func (c *fakeCtx) Backlog() int { return c.backlog }

// take drains and returns captured messages of type M addressed to anyone.
func take[M model.Message](c *fakeCtx) []M {
	var out []M
	var rest []engine.Envelope
	for _, e := range c.sent {
		if m, ok := e.Msg.(M); ok {
			out = append(out, m)
		} else {
			rest = append(rest, e)
		}
	}
	c.sent = rest
	return out
}

// testManager builds a single-site manager over items 0..items-1.
func testManager(items int, semi bool) (*Manager, *history.Recorder) {
	st := storage.NewStore(0)
	for i := 0; i < items; i++ {
		st.Create(model.ItemID(i), 100)
	}
	rec := history.NewRecorder()
	return New(0, st, rec, Options{DisableSemiLocks: !semi}), rec
}

func req(txn uint64, p model.Protocol, kind model.OpKind, item model.ItemID, ts model.Timestamp) model.RequestMsg {
	return model.RequestMsg{
		Txn:      model.TxnID{Site: 1, Seq: txn},
		Protocol: p,
		Kind:     kind,
		Copy:     model.CopyID{Item: item, Site: 0},
		TS:       ts,
		Interval: 10,
		Site:     1,
	}
}

func release(txn uint64, item model.ItemID, write bool, val int64) model.ReleaseMsg {
	m := model.ReleaseMsg{
		Txn:  model.TxnID{Site: 1, Seq: txn},
		Copy: model.CopyID{Item: item, Site: 0},
	}
	if write {
		m.HasWrite = true
		m.Value = val
	}
	return m
}

func TestGrantImmediateOnEmptyQueue(t *testing.T) {
	m, _ := testManager(1, true)
	ctx := newFakeCtx()
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpRead, 0, 5))
	grants := take[model.GrantMsg](ctx)
	if len(grants) != 1 {
		t.Fatalf("grants=%d want 1", len(grants))
	}
	g := grants[0]
	if g.Lock != model.SRL || g.PreScheduled || g.Value != 100 {
		t.Fatalf("grant = %+v", g)
	}
}

func TestTORejectOutOfOrder(t *testing.T) {
	m, _ := testManager(1, true)
	ctx := newFakeCtx()
	// Write with TS 10 granted; a read with TS 7 arrives late → reject.
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpWrite, 0, 10))
	if g := take[model.GrantMsg](ctx); len(g) != 1 {
		t.Fatalf("setup grant missing")
	}
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.TO, model.OpRead, 0, 7))
	rejects := take[model.RejectMsg](ctx)
	if len(rejects) != 1 {
		t.Fatalf("rejects=%d want 1", len(rejects))
	}
	if rejects[0].Threshold != 10 {
		t.Fatalf("threshold=%d want 10", rejects[0].Threshold)
	}
}

func TestTOReadAcceptedAfterBiggerTS(t *testing.T) {
	m, _ := testManager(1, true)
	ctx := newFakeCtx()
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpWrite, 0, 10))
	take[model.GrantMsg](ctx)
	// TS 12 read arrives while WL(10) is held: accepted, waits (basic T/O
	// would also wait for the writer to finish).
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.TO, model.OpRead, 0, 12))
	if g := take[model.GrantMsg](ctx); len(g) != 0 {
		t.Fatalf("read granted while WL held: %+v", g)
	}
	// Writer releases → read grants.
	m.OnMessage(ctx, engine.RIAddr(1), release(1, 0, true, 555))
	grants := take[model.GrantMsg](ctx)
	if len(grants) != 1 || grants[0].Lock != model.SRL {
		t.Fatalf("grants after release: %+v", grants)
	}
	if grants[0].Value != 555 {
		t.Fatalf("read did not observe the write: %+v", grants[0])
	}
}

func TestPABackoffComputation(t *testing.T) {
	m, _ := testManager(1, true)
	ctx := newFakeCtx()
	// Granted write at TS 25; PA read with TS 7, INT 10 → TS' = 7+2·10 = 27
	// (minimal k with TS' > 25).
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpWrite, 0, 25))
	take[model.GrantMsg](ctx)
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.PA, model.OpRead, 0, 7))
	backs := take[model.BackoffMsg](ctx)
	if len(backs) != 1 {
		t.Fatalf("backoffs=%d want 1", len(backs))
	}
	if backs[0].NewTS != 27 {
		t.Fatalf("TS'=%d want 27", backs[0].NewTS)
	}
}

func TestPAWriteThresholdUsesReadTS(t *testing.T) {
	m, _ := testManager(1, true)
	ctx := newFakeCtx()
	// Granted 2PL read raises R-TS via the unified precedence (assigned
	// from maxSeenTS=0 here, so seed a T/O read at TS 30 instead).
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpRead, 0, 30))
	take[model.GrantMsg](ctx)
	// PA write TS 8, INT 10: threshold = max(W-TS, R-TS) = 30 → TS' = 38.
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.PA, model.OpWrite, 0, 8))
	backs := take[model.BackoffMsg](ctx)
	if len(backs) != 1 || backs[0].NewTS != 38 {
		t.Fatalf("backoffs=%+v want TS'=38", backs)
	}
}

func TestBlockedPAEntryGatesHD(t *testing.T) {
	m, _ := testManager(1, true)
	ctx := newFakeCtx()
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpWrite, 0, 25))
	take[model.GrantMsg](ctx)
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.PA, model.OpRead, 0, 7)) // backoff → blocked
	take[model.BackoffMsg](ctx)
	m.OnMessage(ctx, engine.RIAddr(1), release(1, 0, true, 1))
	// The blocked PA entry (TS'=27) must gate the later T/O read (TS 40).
	m.OnMessage(ctx, engine.RIAddr(1), req(3, model.TO, model.OpRead, 0, 40))
	if g := take[model.GrantMsg](ctx); len(g) != 0 {
		t.Fatalf("blocked entry did not gate HD: %+v", g)
	}
	// Final timestamp arrives → both grant in precedence order.
	m.OnMessage(ctx, engine.RIAddr(1), model.FinalTSMsg{
		Txn: model.TxnID{Site: 1, Seq: 2}, Copy: model.CopyID{Item: 0, Site: 0}, TS: 27,
	})
	grants := take[model.GrantMsg](ctx)
	if len(grants) != 2 {
		t.Fatalf("grants=%d want 2 (PA read then T/O read)", len(grants))
	}
	if grants[0].Txn.Seq != 2 || grants[1].Txn.Seq != 3 {
		t.Fatalf("grant order wrong: %+v", grants)
	}
}

func TestFinalTSRevokesProvisionalGrant(t *testing.T) {
	m, _ := testManager(1, true)
	ctx := newFakeCtx()
	// PA write granted provisionally at TS 5.
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.PA, model.OpWrite, 0, 5))
	if g := take[model.GrantMsg](ctx); len(g) != 1 {
		t.Fatal("setup grant missing")
	}
	// A second PA write (TS 20) queues behind t1's provisional WL.
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.PA, model.OpWrite, 0, 20))
	if g := take[model.GrantMsg](ctx); len(g) != 0 {
		t.Fatalf("t2 granted through t1's WL: %+v", g)
	}
	// t1 was backed off elsewhere; its agreed TS 50 arrives. The
	// provisional grant is revoked and t1 re-inserts at 50 behind t2 —
	// which then grants. Without revocation this is exactly the
	// crossed-grant deadlock of Corollary 1's proof.
	m.OnMessage(ctx, engine.RIAddr(1), model.FinalTSMsg{
		Txn: model.TxnID{Site: 1, Seq: 1}, Copy: model.CopyID{Item: 0, Site: 0}, TS: 50,
	})
	if got := m.Snapshot().Revokes; got != 1 {
		t.Fatalf("revokes=%d want 1", got)
	}
	grants := take[model.GrantMsg](ctx)
	if len(grants) != 1 || grants[0].Txn.Seq != 2 {
		t.Fatalf("revocation did not free the queue: %+v", grants)
	}
	// After txn2 releases, txn1 re-grants with the final timestamp echoed.
	m.OnMessage(ctx, engine.RIAddr(1), release(2, 0, true, 7))
	grants = take[model.GrantMsg](ctx)
	if len(grants) != 1 || grants[0].Txn.Seq != 1 || grants[0].TS != 50 {
		t.Fatalf("re-grant wrong: %+v", grants)
	}
}

func TestSemiLockPreScheduledFlow(t *testing.T) {
	m, rec := testManager(1, true)
	ctx := newFakeCtx()
	// T/O write t1 granted; executes with a pre-scheduled lock elsewhere →
	// converts WL→SWL here.
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpWrite, 0, 10))
	take[model.GrantMsg](ctx)
	conv := release(1, 0, true, 999)
	conv.ToSemi = true
	m.OnMessage(ctx, engine.RIAddr(1), conv)
	// The write is implemented at conversion.
	if v, _ := m.store.Read(0); v != 999 {
		t.Fatalf("value=%d want 999 (write applies at semi conversion)", v)
	}
	// A younger T/O read (TS 20) gets a PRE-SCHEDULED SRL despite the SWL.
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.TO, model.OpRead, 0, 20))
	grants := take[model.GrantMsg](ctx)
	if len(grants) != 1 || grants[0].Lock != model.SRL || !grants[0].PreScheduled {
		t.Fatalf("pre-scheduled SRL expected: %+v", grants)
	}
	if grants[0].Value != 999 {
		t.Fatalf("reader must see the converted write: %+v", grants[0])
	}
	// A 2PL read must still wait (semi-locked = locked for 2PL).
	m.OnMessage(ctx, engine.RIAddr(1), req(3, model.TwoPL, model.OpRead, 0, 0))
	if g := take[model.GrantMsg](ctx); len(g) != 0 {
		t.Fatalf("2PL read bypassed a SWL: %+v", g)
	}
	// t1's true release → t2's SRL becomes normal, and the 2PL read grants.
	m.OnMessage(ctx, engine.RIAddr(1), release(1, 0, false, 0))
	normals := take[model.NormalGrantMsg](ctx)
	if len(normals) != 1 || normals[0].Txn.Seq != 2 {
		t.Fatalf("normal grant expected for t2: %+v", normals)
	}
	// 2PL read still blocked by t2's SRL? No: SRL vs RL don't conflict.
	grants = take[model.GrantMsg](ctx)
	if len(grants) != 1 || grants[0].Txn.Seq != 3 || grants[0].Lock != model.RL {
		t.Fatalf("2PL read should grant after SWL release: %+v", grants)
	}
	_ = rec
}

func TestLockEverythingDisablesPreScheduling(t *testing.T) {
	m, _ := testManager(1, false)
	ctx := newFakeCtx()
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpWrite, 0, 10))
	take[model.GrantMsg](ctx)
	conv := release(1, 0, true, 5)
	conv.ToSemi = true
	m.OnMessage(ctx, engine.RIAddr(1), conv)
	// Under lock-everything, the SWL still blocks the younger T/O read.
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.TO, model.OpRead, 0, 20))
	if g := take[model.GrantMsg](ctx); len(g) != 0 {
		t.Fatalf("ABL-1 mode must not pre-schedule: %+v", g)
	}
}

func TestTwoPLFCFSTail(t *testing.T) {
	m, _ := testManager(1, true)
	ctx := newFakeCtx()
	// T/O write TS 100 granted → maxSeenTS=100. A 2PL write then a T/O
	// write TS 50: the T/O request (50 ≤ W-TS) is rejected, while the 2PL
	// request waits at the tail.
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpWrite, 0, 100))
	take[model.GrantMsg](ctx)
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.TwoPL, model.OpWrite, 0, model.NoTimestamp))
	if g := take[model.GrantMsg](ctx); len(g) != 0 {
		t.Fatal("2PL write granted while WL held")
	}
	m.OnMessage(ctx, engine.RIAddr(1), req(3, model.TO, model.OpWrite, 0, 50))
	if r := take[model.RejectMsg](ctx); len(r) != 1 {
		t.Fatalf("late T/O write not rejected: %+v", r)
	}
	// Release → the 2PL write grants (it queued at the tail = TS 100 slot).
	m.OnMessage(ctx, engine.RIAddr(1), release(1, 0, true, 1))
	grants := take[model.GrantMsg](ctx)
	if len(grants) != 1 || grants[0].Txn.Seq != 2 || grants[0].Lock != model.WL {
		t.Fatalf("2PL grant expected: %+v", grants)
	}
}

func TestAbortRemovesEntryAndUnblocks(t *testing.T) {
	m, _ := testManager(1, true)
	ctx := newFakeCtx()
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpWrite, 0, 10))
	take[model.GrantMsg](ctx)
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.TO, model.OpWrite, 0, 20))
	// Abort the holder → the waiter grants; no write was implemented.
	m.OnMessage(ctx, engine.RIAddr(1), model.AbortMsg{
		Txn: model.TxnID{Site: 1, Seq: 1}, Copy: model.CopyID{Item: 0, Site: 0},
	})
	grants := take[model.GrantMsg](ctx)
	if len(grants) != 1 || grants[0].Txn.Seq != 2 {
		t.Fatalf("abort did not unblock waiter: %+v", grants)
	}
	if v, _ := m.store.Read(0); v != 100 {
		t.Fatalf("aborted txn changed the store: %d", v)
	}
}

func TestWaitEdgesReporting(t *testing.T) {
	m, _ := testManager(1, true)
	ctx := newFakeCtx()
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpWrite, 0, 10))
	take[model.GrantMsg](ctx)
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.TwoPL, model.OpWrite, 0, 0))
	m.OnMessage(ctx, engine.RIAddr(1), req(3, model.TwoPL, model.OpRead, 0, 0))
	m.OnMessage(ctx, engine.RIAddr(1), model.ProbeWFGMsg{Round: 1})
	reports := take[model.WFGReportMsg](ctx)
	if len(reports) != 1 {
		t.Fatalf("reports=%d", len(reports))
	}
	// txn2 waits on holder txn1; txn3 waits on its predecessor txn2 (and on
	// the WL holder txn1).
	found21, found32 := false, false
	for _, e := range reports[0].Edges {
		if e.Waiter.Seq == 2 && e.Holder.Seq == 1 {
			found21 = true
		}
		if e.Waiter.Seq == 3 && e.Holder.Seq == 2 {
			found32 = true
		}
	}
	if !found21 || !found32 {
		t.Fatalf("missing edges: %+v", reports[0].Edges)
	}
}

func TestAwaitNormalWaitEdgesReported(t *testing.T) {
	// Regression: a converted T/O transaction awaiting its normal grant
	// must appear as a waiter on the conflicting earlier grant (otherwise
	// deadlock cycles threading through it are invisible to the detector).
	m, _ := testManager(1, true)
	ctx := newFakeCtx()
	// t1: T/O read granted SRL (holds it while "computing").
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpRead, 0, 10))
	take[model.GrantMsg](ctx)
	// t2: T/O write granted pre-scheduled WL over the live SRL, converts.
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.TO, model.OpWrite, 0, 20))
	grants := take[model.GrantMsg](ctx)
	if len(grants) != 1 || !grants[0].PreScheduled {
		t.Fatalf("setup: %+v", grants)
	}
	conv := release(2, 0, true, 5)
	conv.ToSemi = true
	m.OnMessage(ctx, engine.RIAddr(1), conv)
	// t2 now holds a SWL that cannot normalize until t1 releases.
	m.OnMessage(ctx, engine.RIAddr(1), model.ProbeWFGMsg{Round: 1})
	reports := take[model.WFGReportMsg](ctx)
	found := false
	for _, e := range reports[0].Edges {
		if e.Waiter.Seq == 2 && e.Holder.Seq == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("await-normal edge t2→t1 missing: %+v", reports[0].Edges)
	}
}

func TestTOReadRecordedAtGrantAndDiscardedOnAbort(t *testing.T) {
	m, rec := testManager(1, true)
	ctx := newFakeCtx()
	copyID := model.CopyID{Item: 0, Site: 0}
	// Grant a T/O read: it must be in the log immediately.
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpRead, 0, 10))
	take[model.GrantMsg](ctx)
	if log := rec.Log(copyID); len(log) != 1 || log[0].Kind != model.OpRead {
		t.Fatalf("read not recorded at grant: %+v", log)
	}
	// Abort the attempt: the record must vanish.
	m.OnMessage(ctx, engine.RIAddr(1), model.AbortMsg{
		Txn: model.TxnID{Site: 1, Seq: 1}, Copy: copyID,
	})
	if log := rec.Log(copyID); len(log) != 0 {
		t.Fatalf("aborted read still recorded: %+v", log)
	}
}

func TestTOReadNotDoubleRecorded(t *testing.T) {
	m, rec := testManager(1, true)
	ctx := newFakeCtx()
	copyID := model.CopyID{Item: 0, Site: 0}
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TO, model.OpRead, 0, 10))
	take[model.GrantMsg](ctx)
	// Direct release (no pre-scheduled locks): must not re-record the read.
	m.OnMessage(ctx, engine.RIAddr(1), release(1, 0, false, 0))
	if log := rec.Log(copyID); len(log) != 1 {
		t.Fatalf("read double-recorded: %+v", log)
	}
}

// TestSnapReadBypassesQueue: a snapshot read is answered immediately — and
// with the right version — even while a write lock is held and a writer
// queue has formed; it never creates a queue entry.
func TestSnapReadBypassesQueue(t *testing.T) {
	m, rec := testManager(1, true)
	ctx := newFakeCtx()

	// Writer 1 commits value 200 at t=1000.
	ctx.now = 500
	m.OnMessage(ctx, engine.RIAddr(1), req(1, model.PA, model.OpWrite, 0, 500))
	take[model.GrantMsg](ctx)
	ctx.now = 1_000
	rel := release(1, 0, true, 200)
	rel.CommitMicros = 1_000
	m.OnMessage(ctx, engine.RIAddr(1), rel)

	// Writer 2 takes the write lock and sits on it (no release yet).
	ctx.now = 2_000
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.PA, model.OpWrite, 0, 2_000))
	if g := take[model.GrantMsg](ctx); len(g) != 1 {
		t.Fatalf("writer 2 not granted: %d", len(g))
	}
	depthBefore := m.QueueDepth(0)

	// Snapshot read at ts=1500 must answer now with writer 1's version,
	// not wait for writer 2.
	ctx.now = 3_000
	m.OnMessage(ctx, engine.RIAddr(2), model.SnapReadMsg{
		Txn:        model.TxnID{Site: 2, Seq: 9},
		Copy:       model.CopyID{Item: 0, Site: 0},
		SnapMicros: 1_500,
		Site:       2,
	})
	replies := take[model.SnapReadReplyMsg](ctx)
	if len(replies) != 1 {
		t.Fatalf("replies=%d want 1", len(replies))
	}
	r := replies[0]
	if r.Value != 200 || r.Version != 1 || !r.Exact || r.CommitMicros != 1_000 {
		t.Fatalf("reply = %+v, want value 200 v1 exact @1000", r)
	}
	if m.QueueDepth(0) != depthBefore {
		t.Fatal("snapshot read created a queue entry")
	}
	if got := m.Snapshot().SnapReads; got != 1 {
		t.Fatalf("SnapReads = %d, want 1", got)
	}

	// A pre-first-commit snapshot sees the initial value.
	m.OnMessage(ctx, engine.RIAddr(2), model.SnapReadMsg{
		Txn:        model.TxnID{Site: 2, Seq: 10},
		Copy:       model.CopyID{Item: 0, Site: 0},
		SnapMicros: 900,
		Site:       2,
	})
	replies = take[model.SnapReadReplyMsg](ctx)
	if len(replies) != 1 || replies[0].Value != 100 || replies[0].Version != 0 {
		t.Fatalf("pre-commit reply = %+v, want initial value 100 v0", replies)
	}

	// The history log orders the two snapshot reads by the version they
	// observed: the v0 read sits before writer 1's write even though it was
	// recorded after it.
	log := rec.Log(model.CopyID{Item: 0, Site: 0})
	if len(log) != 3 {
		t.Fatalf("log = %+v, want [r(v0) w1 r(v1)]", log)
	}
	if log[0].Kind != model.OpRead || log[0].Txn.Seq != 10 {
		t.Fatalf("log[0] = %+v, want the v0 snapshot read", log[0])
	}
	if log[1].Kind != model.OpWrite || log[1].Txn.Seq != 1 {
		t.Fatalf("log[1] = %+v, want writer 1", log[1])
	}
	if log[2].Kind != model.OpRead || log[2].Txn.Seq != 9 {
		t.Fatalf("log[2] = %+v, want the v1 snapshot read", log[2])
	}
}
