package workload

import (
	"math"
	"math/rand"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// fakeCtx is a minimal engine.Context for driving the generator.
type fakeCtx struct {
	now    int64
	sent   []engine.Envelope
	timers []int64
	rng    *rand.Rand
}

func (c *fakeCtx) NowMicros() int64  { return c.now }
func (c *fakeCtx) Self() engine.Addr { return engine.DriverAddr(0) }
func (c *fakeCtx) Rand() *rand.Rand  { return c.rng }
func (c *fakeCtx) Send(to engine.Addr, msg model.Message) {
	c.sent = append(c.sent, engine.Envelope{To: to, Msg: msg})
}
func (c *fakeCtx) SetTimer(d int64, msg model.Message) {
	c.timers = append(c.timers, d)
	c.now += d
}
func (c *fakeCtx) Backlog() int { return 0 }

func drive(t *testing.T, spec Spec, n int) []*model.Txn {
	t.Helper()
	d, err := NewDriver(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &fakeCtx{rng: rand.New(rand.NewSource(42))}
	for i := 0; i < n; i++ {
		d.OnMessage(ctx, engine.DriverAddr(0), model.TickMsg{})
	}
	var out []*model.Txn
	for _, e := range ctx.sent {
		if m, ok := e.Msg.(model.SubmitTxnMsg); ok {
			out = append(out, m.Txn)
		}
	}
	return out
}

func TestValidateDefaults(t *testing.T) {
	s := Spec{ArrivalPerSec: 1, Items: 10}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Size != 4 || s.Share2PL != 1 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	bad := Spec{Items: 10}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero arrival must fail")
	}
	bad2 := Spec{ArrivalPerSec: 1}
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero items must fail")
	}
}

func TestFixedSizeAndUniqueness(t *testing.T) {
	txns := drive(t, Spec{
		ArrivalPerSec: 100, Items: 20, Size: 5, ReadFrac: 0.5, ShareTO: 1,
	}, 200)
	if len(txns) != 200 {
		t.Fatalf("generated %d", len(txns))
	}
	seen := map[model.TxnID]bool{}
	for _, tx := range txns {
		if tx.Size() != 5 {
			t.Fatalf("size = %d want 5", tx.Size())
		}
		if seen[tx.ID] {
			t.Fatalf("duplicate id %v", tx.ID)
		}
		seen[tx.ID] = true
		if tx.Protocol != model.TO {
			t.Fatalf("protocol = %v", tx.Protocol)
		}
	}
}

func TestUniformSizeInRange(t *testing.T) {
	txns := drive(t, Spec{
		ArrivalPerSec: 100, Items: 30, SizeDist: SizeUniform,
		SizeMin: 2, SizeMax: 6, ReadFrac: 0.5, SharePA: 1,
	}, 500)
	for _, tx := range txns {
		if tx.Size() < 2 || tx.Size() > 6 {
			t.Fatalf("size %d out of [2,6]", tx.Size())
		}
	}
}

func TestGeometricSizeMean(t *testing.T) {
	txns := drive(t, Spec{
		ArrivalPerSec: 100, Items: 100, SizeDist: SizeGeometric,
		Size: 4, SizeMax: 40, ReadFrac: 0.5, Share2PL: 1,
	}, 3000)
	var sum float64
	for _, tx := range txns {
		sum += float64(tx.Size())
	}
	mean := sum / float64(len(txns))
	if mean < 3 || mean > 5 {
		t.Fatalf("geometric mean size = %.2f, want ≈4", mean)
	}
}

func TestReadFraction(t *testing.T) {
	txns := drive(t, Spec{
		ArrivalPerSec: 100, Items: 50, Size: 4, ReadFrac: 0.7, ShareTO: 1,
	}, 2000)
	var reads, total float64
	for _, tx := range txns {
		reads += float64(tx.NumReads())
		total += float64(tx.Size())
	}
	if frac := reads / total; math.Abs(frac-0.7) > 0.05 {
		t.Fatalf("read fraction = %.3f want ≈0.7", frac)
	}
}

func TestProtocolShares(t *testing.T) {
	d, err := NewDriver(0, Spec{
		ArrivalPerSec: 100, Items: 20, Size: 2, ReadFrac: 0.5,
		Share2PL: 1, ShareTO: 1, SharePA: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &fakeCtx{rng: rand.New(rand.NewSource(9))}
	for i := 0; i < 4000; i++ {
		d.OnMessage(ctx, engine.DriverAddr(0), model.TickMsg{})
	}
	tot := float64(d.Generated[0] + d.Generated[1] + d.Generated[2])
	if pa := float64(d.Generated[model.PA]) / tot; math.Abs(pa-0.5) > 0.05 {
		t.Fatalf("PA share = %.3f want ≈0.5", pa)
	}
}

func TestHotspotSkew(t *testing.T) {
	txns := drive(t, Spec{
		ArrivalPerSec: 100, Items: 100, Size: 2, ReadFrac: 0.5, ShareTO: 1,
		Access: AccessHotspot, HotItems: 10, HotFrac: 0.8,
	}, 2000)
	hot := 0
	total := 0
	for _, tx := range txns {
		for _, op := range tx.Ops() {
			total++
			if op.Item < 10 {
				hot++
			}
		}
	}
	frac := float64(hot) / float64(total)
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("hot fraction = %.3f want ≈0.8", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	txns := drive(t, Spec{
		ArrivalPerSec: 100, Items: 100, Size: 2, ReadFrac: 0.5, ShareTO: 1,
		Access: AccessZipf, ZipfS: 1.5,
	}, 2000)
	counts := map[model.ItemID]int{}
	total := 0
	for _, tx := range txns {
		for _, op := range tx.Ops() {
			counts[op.Item]++
			total++
		}
	}
	// Item 0 must dominate under Zipf(1.5).
	if frac := float64(counts[0]) / float64(total); frac < 0.15 {
		t.Fatalf("item 0 fraction = %.3f, too uniform for Zipf", frac)
	}
}

func TestHorizonStopsArrivals(t *testing.T) {
	d, err := NewDriver(0, Spec{
		ArrivalPerSec: 100, Items: 10, Size: 2, ReadFrac: 0.5, Share2PL: 1,
		HorizonMicros: 1, // expires immediately
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &fakeCtx{now: 10, rng: rand.New(rand.NewSource(1))}
	d.OnMessage(ctx, engine.DriverAddr(0), model.TickMsg{})
	if len(ctx.sent) != 0 {
		t.Fatal("driver generated past its horizon")
	}
}

func TestMaxTxnsCap(t *testing.T) {
	txns := drive(t, Spec{
		ArrivalPerSec: 100, Items: 10, Size: 2, ReadFrac: 0.5, Share2PL: 1,
		MaxTxns: 7,
	}, 50)
	if len(txns) != 7 {
		t.Fatalf("generated %d want 7", len(txns))
	}
}

func TestStopMessage(t *testing.T) {
	d, _ := NewDriver(0, Spec{ArrivalPerSec: 100, Items: 10, Size: 2, Share2PL: 1})
	ctx := &fakeCtx{rng: rand.New(rand.NewSource(1))}
	d.OnMessage(ctx, engine.DriverAddr(0), model.StopMsg{})
	d.OnMessage(ctx, engine.DriverAddr(0), model.TickMsg{})
	if len(ctx.sent) != 0 {
		t.Fatal("driver generated after StopMsg")
	}
}

func TestPoissonGapsMatchRate(t *testing.T) {
	d, _ := NewDriver(0, Spec{ArrivalPerSec: 50, Items: 10, Size: 2, ReadFrac: 0.5, Share2PL: 1})
	ctx := &fakeCtx{rng: rand.New(rand.NewSource(4))}
	for i := 0; i < 3000; i++ {
		d.OnMessage(ctx, engine.DriverAddr(0), model.TickMsg{})
	}
	var sum float64
	for _, gap := range ctx.timers {
		sum += float64(gap)
	}
	meanGap := sum / float64(len(ctx.timers))
	want := 1e6 / 50.0
	if math.Abs(meanGap-want)/want > 0.1 {
		t.Fatalf("mean gap %.0fµs want ≈%.0fµs", meanGap, want)
	}
}
