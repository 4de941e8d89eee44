package qm

import (
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// walWatch is both the store's journal and the manager's Durable. It checks
// the write-ahead rule from the outside: between the first write journaled
// after a sync and the next sync, the shard may not send anything.
type walWatch struct {
	t        *testing.T
	ctx      *fakeCtx
	unsynced bool
	sentThen int // len(ctx.sent) when the first unsynced write was journaled
	flushes  int
}

func (w *walWatch) RecordWrite(model.ItemID, model.TxnID, int64, uint64, int64) {
	if !w.unsynced {
		w.unsynced = true
		w.sentThen = len(w.ctx.sent)
	}
}

func (w *walWatch) Flush() error {
	if w.unsynced && len(w.ctx.sent) != w.sentThen {
		w.t.Errorf("%d messages left the shard between journaling a write and its sync", len(w.ctx.sent)-w.sentThen)
	}
	w.unsynced = false
	w.flushes++
	return nil
}

func (w *walWatch) Crash()         {}
func (w *walWatch) Recover() error { return nil }

// durableManager builds a one-shard durable site over items 0..items-1 whose
// journal and sync are watched.
func durableManager(t *testing.T, items int) (*Manager, *fakeCtx, *walWatch) {
	m, _ := testManager(items, true)
	ctx := newFakeCtx()
	w := &walWatch{t: t, ctx: ctx}
	m.store.SetJournal(w)
	m.SetDurable(w)
	return m, ctx, w
}

// lockThenQueue grants txn 1 a write lock on each item and queues txn 2's
// write behind it on item 0, so releasing txn 1's item 0 sends a grant that
// exposes the write.
func lockThenQueue(t *testing.T, m *Manager, ctx *fakeCtx, items int) {
	t.Helper()
	for i := 0; i < items; i++ {
		m.OnMessage(ctx, engine.RIAddr(1), req(1, model.TwoPL, model.OpWrite, model.ItemID(i), 0))
	}
	m.OnMessage(ctx, engine.RIAddr(1), req(2, model.TwoPL, model.OpWrite, 0, 0))
	if g := take[model.GrantMsg](ctx); len(g) != items {
		t.Fatalf("setup: %d grants, want %d", len(g), items)
	}
	ctx.sent = nil
}

// TestBacklogBatchesOneSync: with messages waiting behind it, a delivery
// that journals a write leaves its sends held; the writes of the deliveries
// that follow join the batch, and when as many further messages as were
// waiting have been handled, one sync makes them all durable and the held
// sends leave in order.
func TestBacklogBatchesOneSync(t *testing.T) {
	const items = 3
	m, ctx, w := durableManager(t, items)
	lockThenQueue(t, m, ctx, items)

	ctx.backlog = items - 1 // the other two releases wait behind the first
	for i := 0; i < items; i++ {
		if len(ctx.sent) != 0 || w.flushes != 0 {
			t.Fatalf("release %d: %d sends and %d syncs before the batch closed", i, len(ctx.sent), w.flushes)
		}
		m.OnMessage(ctx, engine.RIAddr(1), release(1, model.ItemID(i), true, int64(200+i)))
	}
	if w.flushes != 1 {
		t.Fatalf("a batch of %d write releases cost %d syncs, want 1", items, w.flushes)
	}
	g := take[model.GrantMsg](ctx)
	if len(g) != 1 || g[0].Txn.Seq != 2 || g[0].Value != 200 {
		t.Fatalf("after the sync, grants = %+v, want txn 2's grant carrying 200", g)
	}
	if c := m.Snapshot(); c.Commits != 1 || c.WALSyncs != 1 {
		t.Fatalf("sequencer counted %d commits / %d syncs, want 1/1", c.Commits, c.WALSyncs)
	}
}

// TestBacklogDrainedReleasesAtOnce: a batch closes as soon as nothing waits
// behind the current delivery.
func TestBacklogDrainedReleasesAtOnce(t *testing.T) {
	m, ctx, w := durableManager(t, 2)
	lockThenQueue(t, m, ctx, 2)

	ctx.backlog = 5
	m.OnMessage(ctx, engine.RIAddr(1), release(1, 0, true, 7))
	if w.flushes != 0 || len(ctx.sent) != 0 {
		t.Fatalf("batch closed with a backlog waiting: %d syncs, %d sends", w.flushes, len(ctx.sent))
	}
	ctx.backlog = 0
	m.OnMessage(ctx, engine.RIAddr(1), release(1, 1, false, 0))
	if w.flushes != 1 {
		t.Fatalf("syncs = %d after the backlog drained, want 1", w.flushes)
	}
	if g := take[model.GrantMsg](ctx); len(g) != 1 || g[0].Value != 7 {
		t.Fatalf("grants = %+v, want one carrying 7", g)
	}
}

// TestBacklogNeverDrainingStillReleases: liveness. Under a mailbox that
// never empties, the held sends leave once as many further messages as were
// waiting at the first write have been handled — control messages included.
func TestBacklogNeverDrainingStillReleases(t *testing.T) {
	const waiting = 4
	m, ctx, w := durableManager(t, 1)
	lockThenQueue(t, m, ctx, 1)

	ctx.backlog = waiting
	m.OnMessage(ctx, engine.RIAddr(1), release(1, 0, true, 9))
	ctx.backlog = 1_000 // new work keeps arriving
	for i := 1; i <= waiting; i++ {
		if w.flushes != 0 || len(ctx.sent) != 0 {
			t.Fatalf("released after %d further messages, want %d", i-1, waiting)
		}
		m.OnMessage(ctx, engine.RIAddr(1), model.TickMsg{}) // stats tick: a control message
	}
	if w.flushes != 1 {
		t.Fatalf("syncs = %d after %d further messages, want 1", w.flushes, waiting)
	}
	if g := take[model.GrantMsg](ctx); len(g) != 1 || g[0].Value != 9 {
		t.Fatalf("grants = %+v, want one carrying 9", g)
	}
}

// TestCrashDiscardsHeldSends: a crash loses the unsynced writes, so the
// sends held behind them must never leave; after recovery the site syncs
// per delivery again.
func TestCrashDiscardsHeldSends(t *testing.T) {
	m, ctx, w := durableManager(t, 1)
	lockThenQueue(t, m, ctx, 1)

	ctx.backlog = 3
	m.OnMessage(ctx, engine.RIAddr(1), release(1, 0, true, 11))
	m.OnMessage(ctx, engine.RIAddr(1), model.CrashMsg{})
	m.OnMessage(ctx, engine.RIAddr(1), model.RecoverMsg{})
	ctx.backlog = 0
	m.OnMessage(ctx, engine.RIAddr(1), model.TickMsg{})
	if g := take[model.GrantMsg](ctx); len(g) != 0 {
		t.Fatalf("a held grant exposing a crashed write left the site: %+v", g)
	}
	if w.flushes != 0 {
		t.Fatalf("syncs = %d, want 0 (the batch died with the crash)", w.flushes)
	}
	for _, sh := range m.shards {
		if len(sh.held) != 0 || sh.dirty {
			t.Fatalf("shard %d kept %d held sends (dirty=%v) across the crash", sh.idx, len(sh.held), sh.dirty)
		}
	}
}
