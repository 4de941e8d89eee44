package deadlock

import (
	"math/rand"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

type fakeCtx struct {
	now    int64
	sent   []engine.Envelope
	timers int
	rng    *rand.Rand
}

func (c *fakeCtx) NowMicros() int64  { return c.now }
func (c *fakeCtx) Self() engine.Addr { return engine.DetectorAddr() }
func (c *fakeCtx) Rand() *rand.Rand  { return c.rng }
func (c *fakeCtx) Send(to engine.Addr, msg model.Message) {
	c.sent = append(c.sent, engine.Envelope{To: to, Msg: msg})
}
func (c *fakeCtx) SetTimer(d int64, msg model.Message) { c.timers++ }

func tid(n uint64) model.TxnID { return model.TxnID{Site: 1, Seq: n} }

func edge(waiter, holder uint64, w2pl, h2pl bool) model.WaitEdge {
	return model.WaitEdge{
		Waiter: tid(waiter), Holder: tid(holder),
		Waiter2PL: w2pl, Holder2PL: h2pl,
		WaiterSite: 1, WaiterIssuer: 1,
	}
}
func (c *fakeCtx) Backlog() int { return 0 }

// runRound probes and feeds one synthetic report per site.
func runRound(d *Detector, ctx *fakeCtx, edges []model.WaitEdge) []model.VictimMsg {
	before := len(ctx.sent)
	d.OnMessage(ctx, engine.DetectorAddr(), model.TickMsg{})
	// Answer the probes: site 0 reports the edges, site 1 reports none.
	round := d.round
	d.OnMessage(ctx, engine.QMAddr(0), model.WFGReportMsg{From: 0, Round: round, Edges: edges})
	d.OnMessage(ctx, engine.QMAddr(1), model.WFGReportMsg{From: 1, Round: round})
	var victims []model.VictimMsg
	for _, e := range ctx.sent[before:] {
		if v, ok := e.Msg.(model.VictimMsg); ok {
			victims = append(victims, v)
		}
	}
	return victims
}

func newTest() (*Detector, *fakeCtx) {
	d := New([]model.SiteID{0, 1}, Options{PeriodMicros: 1000, PersistRounds: 2})
	return d, &fakeCtx{rng: rand.New(rand.NewSource(1))}
}

func TestCyclePersistenceRequired(t *testing.T) {
	d, ctx := newTest()
	cycle := []model.WaitEdge{edge(1, 2, true, true), edge(2, 1, true, true)}
	if v := runRound(d, ctx, cycle); len(v) != 0 {
		t.Fatalf("victim chosen on first sighting: %+v", v)
	}
	v := runRound(d, ctx, cycle)
	if len(v) != 1 {
		t.Fatalf("no victim after persistence: %+v", v)
	}
	// Youngest 2PL member: t1.2.
	if v[0].Txn != tid(2) {
		t.Fatalf("victim = %v want t1.2 (youngest)", v[0].Txn)
	}
	if len(v[0].Cycle) != 2 {
		t.Fatalf("cycle witness = %v", v[0].Cycle)
	}
}

func TestTransientCycleIgnored(t *testing.T) {
	d, ctx := newTest()
	cycle := []model.WaitEdge{edge(1, 2, true, true), edge(2, 1, true, true)}
	runRound(d, ctx, cycle)
	// The cycle resolves by itself before the second sighting.
	if v := runRound(d, ctx, nil); len(v) != 0 {
		t.Fatalf("victim for vanished cycle: %+v", v)
	}
	if d.Snapshot().TransientCycles != 1 {
		t.Fatalf("transient not counted: %+v", d.Snapshot())
	}
}

func TestNo2PLCycleNeverVictimized(t *testing.T) {
	// Corollary 2: a cycle without a 2PL member must be transient; the
	// detector watches it but never kills.
	d, ctx := newTest()
	cycle := []model.WaitEdge{edge(1, 2, false, false), edge(2, 1, false, false)}
	for i := 0; i < 5; i++ {
		if v := runRound(d, ctx, cycle); len(v) != 0 {
			t.Fatalf("round %d: victimized a no-2PL cycle: %+v", i, v)
		}
	}
	if d.Snapshot().No2PLCycles == 0 {
		t.Fatal("no-2PL cycles not counted")
	}
}

func TestMixedCyclePicks2PLMember(t *testing.T) {
	d, ctx := newTest()
	// t3 (T/O) → t9 (2PL) → t3: only t9 is eligible even though t3... wait,
	// t3 is younger. Victim must be the youngest *2PL* member.
	cycle := []model.WaitEdge{edge(9, 3, true, false), edge(3, 9, false, true)}
	runRound(d, ctx, cycle)
	v := runRound(d, ctx, cycle)
	if len(v) != 1 || v[0].Txn != tid(9) {
		t.Fatalf("victim = %+v want t1.9 (the 2PL member)", v)
	}
}

func TestRestartedAttemptIsFreshVictim(t *testing.T) {
	// The detector must be able to victimize attempt 1 of a transaction it
	// already victimized at attempt 0 (regression test for the unbreakable-
	// cycle bug).
	d, ctx := newTest()
	mk := func(att model.Attempt) []model.WaitEdge {
		e1 := edge(1, 2, true, true)
		e1.WaiterSeq = att
		e2 := edge(2, 1, true, true)
		e2.WaiterSeq = att
		return []model.WaitEdge{e1, e2}
	}
	runRound(d, ctx, mk(0))
	v := runRound(d, ctx, mk(0))
	if len(v) != 1 {
		t.Fatal("first victimization missing")
	}
	// The victim restarted (attempt 1) and deadlocked again with the same
	// partner; the cycle must be breakable again.
	runRound(d, ctx, mk(1))
	v = runRound(d, ctx, mk(1))
	if len(v) != 1 {
		t.Fatalf("restarted attempt not victimized: %+v", d.Snapshot())
	}
	if v[0].Attempt != 1 {
		t.Fatalf("victim attempt = %d want 1", v[0].Attempt)
	}
}

func TestLateReportsIgnored(t *testing.T) {
	d, ctx := newTest()
	d.OnMessage(ctx, engine.DetectorAddr(), model.TickMsg{})
	round := d.round
	// A stale report from a previous round must not complete this round.
	d.OnMessage(ctx, engine.QMAddr(0), model.WFGReportMsg{From: 0, Round: round - 1})
	if len(d.expect) != 2 {
		t.Fatal("stale report consumed")
	}
	d.OnMessage(ctx, engine.QMAddr(0), model.WFGReportMsg{From: 0, Round: round})
	d.OnMessage(ctx, engine.QMAddr(1), model.WFGReportMsg{From: 1, Round: round})
	if len(d.expect) != 0 {
		t.Fatal("round did not complete")
	}
}

func TestDrainModeStopsWhenIdle(t *testing.T) {
	d, ctx := newTest()
	runRound(d, ctx, []model.WaitEdge{edge(1, 2, true, true)})
	d.OnMessage(ctx, engine.DetectorAddr(), model.StopMsg{})
	// Still edges → keeps probing.
	timersBefore := ctx.timers
	runRound(d, ctx, []model.WaitEdge{edge(1, 2, true, true)})
	if ctx.timers == timersBefore {
		t.Fatal("drain mode stopped while edges remain")
	}
	// Idle round → next tick does not re-arm.
	runRound(d, ctx, nil)
	timersBefore = ctx.timers
	d.OnMessage(ctx, engine.DetectorAddr(), model.TickMsg{})
	if ctx.timers != timersBefore {
		t.Fatal("detector re-armed after idle drain round")
	}
}

func TestTarjanFindsNestedSCCs(t *testing.T) {
	adj := map[model.TxnID]map[model.TxnID]bool{
		tid(1): {tid(2): true},
		tid(2): {tid(3): true},
		tid(3): {tid(1): true, tid(4): true},
		tid(4): {tid(5): true},
		tid(5): {tid(4): true},
		tid(6): {tid(1): true},
	}
	sccs := tarjanSCC(adj)
	sizes := map[int]int{}
	for _, s := range sccs {
		sizes[len(s)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Fatalf("scc sizes = %v want one 3-cycle, one 2-cycle, one singleton", sizes)
	}
}

func TestVictimPolicyOldest(t *testing.T) {
	d := New([]model.SiteID{0, 1}, Options{
		PeriodMicros: 1000, PersistRounds: 2, Policy: VictimOldest,
	})
	ctx := &fakeCtx{rng: rand.New(rand.NewSource(1))}
	cycle := []model.WaitEdge{edge(1, 2, true, true), edge(2, 1, true, true)}
	runRound(d, ctx, cycle)
	v := runRound(d, ctx, cycle)
	if len(v) != 1 || v[0].Txn != tid(1) {
		t.Fatalf("victim = %+v want t1.1 (oldest)", v)
	}
}
