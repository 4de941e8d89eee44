package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ucc/internal/model"
)

type collect struct {
	mu   sync.Mutex
	tags []uint64
	done chan struct{}
	want int
}

func (c *collect) OnMessage(ctx Context, from Addr, msg model.Message) {
	c.mu.Lock()
	c.tags = append(c.tags, msg.(model.TickMsg).Tag)
	if len(c.tags) == c.want {
		close(c.done)
	}
	c.mu.Unlock()
}

type sender struct {
	to Addr
	n  int
}

func (s *sender) OnMessage(ctx Context, from Addr, msg model.Message) {
	for i := 0; i < s.n; i++ {
		ctx.Send(s.to, model.TickMsg{Tag: uint64(i)})
	}
}

// perSender records, for each sender, the tags it delivered in order.
type perSender struct {
	mu   sync.Mutex
	seen map[Addr][]uint64
	left int
	done chan struct{}
}

func (p *perSender) OnMessage(ctx Context, from Addr, msg model.Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seen[from] = append(p.seen[from], msg.(model.TickMsg).Tag)
	if p.left--; p.left == 0 {
		close(p.done)
	}
}

// TestRuntimeDeliveryAndFIFO: sends are delivered on the sender's goroutine,
// so several actors sending to one receiver at once interleave freely, but
// each (sender, receiver) pair stays in send order.
func TestRuntimeDeliveryAndFIFO(t *testing.T) {
	const senders, n = 8, 500
	rt := NewRuntime(nil, 1)
	defer rt.Shutdown()
	recv := &perSender{seen: map[Addr][]uint64{}, left: senders * n, done: make(chan struct{})}
	rt.Register(QMAddr(0), recv)
	for i := 1; i <= senders; i++ {
		rt.Register(RIAddr(model.SiteID(i)), &sender{to: QMAddr(0), n: n})
	}
	for i := 1; i <= senders; i++ {
		rt.Post(Envelope{To: RIAddr(model.SiteID(i)), Msg: model.TickMsg{}})
	}
	select {
	case <-recv.done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for deliveries")
	}
	recv.mu.Lock()
	defer recv.mu.Unlock()
	if len(recv.seen) != senders {
		t.Fatalf("heard from %d senders, want %d", len(recv.seen), senders)
	}
	for from, tags := range recv.seen {
		for i, tag := range tags {
			if tag != uint64(i) {
				t.Fatalf("FIFO from %v violated at %d: got %d", from, i, tag)
			}
		}
	}
}

// TestNewRuntimeRefusesLatencyModels: the runtime delivers directly, so a
// latency model that would have delayed messages is refused loudly instead
// of being ignored; nil and the zero FixedLatency mean "no delay".
func TestNewRuntimeRefusesLatencyModels(t *testing.T) {
	for _, lm := range []LatencyModel{nil, FixedLatency{}} {
		NewRuntime(lm, 1).Shutdown()
	}
	for _, lm := range []LatencyModel{FixedLatency{RemoteMicros: 1}, UniformLatency{MaxMicros: 2_000}, ExpLatency{MeanMicros: 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRuntime(%#v) did not panic", lm)
				}
			}()
			NewRuntime(lm, 1)
		}()
	}
}

// backlogProbe reports ctx.Backlog() at each delivery.
type backlogProbe struct {
	gate    chan struct{}
	backlog chan int
}

func (b *backlogProbe) OnMessage(ctx Context, from Addr, msg model.Message) {
	<-b.gate
	b.backlog <- ctx.Backlog()
}

// TestRuntimeBacklog: Backlog counts the messages queued behind the one
// being handled.
func TestRuntimeBacklog(t *testing.T) {
	rt := NewRuntime(nil, 1)
	defer rt.Shutdown()
	b := &backlogProbe{gate: make(chan struct{}), backlog: make(chan int, 4)}
	rt.Register(QMAddr(0), b)
	for i := 0; i < 4; i++ {
		rt.Post(Envelope{To: QMAddr(0), Msg: model.TickMsg{Tag: uint64(i)}})
	}
	close(b.gate)
	for want := 3; want >= 0; want-- {
		select {
		case got := <-b.backlog:
			if got != want {
				t.Fatalf("Backlog() = %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out")
		}
	}
}

type timerActor struct {
	fired chan int64
	start time.Time
}

func (a *timerActor) OnMessage(ctx Context, from Addr, msg model.Message) {
	if msg.(model.TickMsg).Tag == 0 {
		a.start = time.Now()
		ctx.SetTimer(20_000, model.TickMsg{Tag: 1}) // 20ms
		return
	}
	a.fired <- time.Since(a.start).Microseconds()
}

func TestRuntimeTimers(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	defer rt.Shutdown()
	a := &timerActor{fired: make(chan int64, 1)}
	rt.Register(RIAddr(1), a)
	rt.Inject(Envelope{From: RIAddr(1), To: RIAddr(1), Msg: model.TickMsg{Tag: 0}})
	select {
	case elapsed := <-a.fired:
		if elapsed < 15_000 {
			t.Fatalf("timer fired after %dµs, want ≈20ms", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

type uplinkCounter struct{ n atomic.Int64 }

func TestRuntimeUplinkForUnknownActors(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	defer rt.Shutdown()
	var up uplinkCounter
	got := make(chan Envelope, 1)
	rt.SetUplink(func(e Envelope) {
		up.n.Add(1)
		got <- e
	})
	rt.Register(RIAddr(1), &sender{to: QMAddr(9), n: 1}) // QM 9 not local
	rt.Inject(Envelope{From: RIAddr(1), To: RIAddr(1), Msg: model.TickMsg{}})
	select {
	case e := <-got:
		if e.To != QMAddr(9) {
			t.Fatalf("uplinked to %v", e.To)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("uplink never called")
	}
}

// TestRuntimePostRoutesRemote: Post delivers to a local mailbox like Inject
// but forwards a remote destination through the uplink instead of dropping
// it — the path a node publishing a partition-map epoch to its peers relies
// on (an Injected MapInstallMsg to a remote QM used to vanish silently).
func TestRuntimePostRoutesRemote(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	defer rt.Shutdown()
	got := make(chan Envelope, 1)
	rt.SetUplink(func(e Envelope) { got <- e })
	recv := &collect{done: make(chan struct{}), want: 1}
	rt.Register(QMAddr(0), recv)

	rt.Post(Envelope{From: QMAddr(0), To: QMAddr(0), Msg: model.TickMsg{}})
	select {
	case <-recv.done:
	case <-time.After(5 * time.Second):
		t.Fatal("Post never delivered to the local actor")
	}

	rt.Post(Envelope{From: QMAddr(0), To: QMAddr(9), Msg: model.TickMsg{}})
	select {
	case e := <-got:
		if e.To != QMAddr(9) {
			t.Fatalf("uplinked to %v, want QM 9", e.To)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Post to a remote actor never reached the uplink")
	}
}

func TestRuntimeShutdownStopsDelivery(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	recv := &collect{done: make(chan struct{}), want: 1}
	rt.Register(RIAddr(1), recv)
	rt.Shutdown()
	rt.Inject(Envelope{From: RIAddr(1), To: RIAddr(1), Msg: model.TickMsg{}})
	select {
	case <-recv.done:
		t.Fatal("delivery after shutdown")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestLatencyModels(t *testing.T) {
	fixed := FixedLatency{RemoteMicros: 100, LocalMicros: 5}
	if fixed.DelayMicros(RIAddr(1), QMAddr(1), nil) != 5 {
		t.Fatal("same-site must be local")
	}
	if fixed.DelayMicros(RIAddr(1), QMAddr(2), nil) != 100 {
		t.Fatal("remote delay wrong")
	}
	rt := NewRuntime(FixedLatency{}, 7)
	defer rt.Shutdown()
	// UniformLatency bounds.
	u := UniformLatency{MinMicros: 10, MaxMicros: 20}
	rng := newTestRand()
	for i := 0; i < 100; i++ {
		d := u.DelayMicros(RIAddr(1), QMAddr(2), rng)
		if d < 10 || d > 20 {
			t.Fatalf("uniform delay %d out of bounds", d)
		}
	}
	// ExpLatency truncation at 10× mean.
	e := ExpLatency{MeanMicros: 100}
	for i := 0; i < 1000; i++ {
		d := e.DelayMicros(RIAddr(1), QMAddr(2), rng)
		if d < 0 || d > 1000 {
			t.Fatalf("exp delay %d out of [0,1000]", d)
		}
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(5)) }

// blockingActor wedges its mailbox goroutine on the first delivery until
// released — the stand-in for a queue-manager shard that cannot keep up.
type blockingActor struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
	handled atomic.Int64
}

func (a *blockingActor) OnMessage(ctx Context, from Addr, msg model.Message) {
	a.once.Do(func() { close(a.entered) })
	<-a.release
	a.handled.Add(1)
}

// busyCollector records BusyMsg NAKs delivered to the sending actor.
type busyCollector struct {
	mu    sync.Mutex
	busys []model.BusyMsg
}

func (c *busyCollector) OnMessage(ctx Context, from Addr, msg model.Message) {
	if b, ok := msg.(model.BusyMsg); ok {
		c.mu.Lock()
		c.busys = append(c.busys, b)
		c.mu.Unlock()
	}
}

// TestMailboxBoundNAKsSheddable is the full-mailbox overflow-policy test: a
// QM-shard mailbox at its bound NAKs sheddable requests back to the sender
// with BusyMsg, keeps admitting protocol-completion traffic (whose loss
// would strand locks), and never blocks anyone.
func TestMailboxBoundNAKsSheddable(t *testing.T) {
	const depth = 4
	rt := NewRuntime(FixedLatency{}, 1)
	rt.SetMailboxDepth(depth)
	qmAddr := QMShardAddr(0, 1)
	riAddr := RIAddr(3)
	blocked := &blockingActor{entered: make(chan struct{}), release: make(chan struct{})}
	sender := &busyCollector{}
	rt.Register(qmAddr, blocked)
	rt.Register(riAddr, sender)
	var unwedgeOnce sync.Once
	unwedge := func() { unwedgeOnce.Do(func() { close(blocked.release) }) }
	defer func() {
		unwedge()
		rt.Shutdown()
	}()

	req := func(seq uint64) Envelope {
		return Envelope{From: riAddr, To: qmAddr, Msg: model.RequestMsg{
			Txn:  model.TxnID{Site: 3, Seq: seq},
			Copy: model.CopyID{Item: model.ItemID(seq), Site: 0},
			Site: 3,
		}}
	}
	// Wedge the consumer: the first request is popped into OnMessage and
	// blocks there, leaving the mailbox itself empty.
	rt.Inject(req(0))
	select {
	case <-blocked.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never entered OnMessage")
	}
	// Fill the mailbox to its bound, then overflow it.
	const overflow = 10
	for i := 1; i <= depth+overflow; i++ {
		rt.Inject(req(uint64(i)))
	}
	// Exactly the overflowing requests must be NAK'd (delivered through the
	// sender's own mailbox goroutine, hence the poll).
	deadline := time.Now().Add(5 * time.Second)
	for {
		sender.mu.Lock()
		got := len(sender.busys)
		sender.mu.Unlock()
		if got == overflow {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("busy NAKs = %d, want %d", got, overflow)
		}
		time.Sleep(time.Millisecond)
	}
	// A non-sheddable message (a release) must be admitted past the bound.
	rt.Inject(Envelope{From: riAddr, To: qmAddr, Msg: model.ReleaseMsg{
		Txn: model.TxnID{Site: 3, Seq: 99},
	}})
	overflows, high := rt.MailboxStats()
	if overflows != overflow {
		t.Fatalf("overflow counter = %d, want %d", overflows, overflow)
	}
	if high < depth+1 {
		t.Fatalf("mailbox high-water = %d, want ≥ %d (the non-sheddable release must pass the bound)", high, depth+1)
	}
	// The NAKs carry the refused request's identity.
	sender.mu.Lock()
	for i, b := range sender.busys {
		if b.Txn.Seq != uint64(depth+1+i) {
			sender.mu.Unlock()
			t.Fatalf("NAK %d names txn %v, want seq %d", i, b.Txn, depth+1+i)
		}
	}
	sender.mu.Unlock()
	// Unwedge the consumer and count what it actually processed: the first
	// request + exactly `depth` queued requests + the release — never the
	// NAK'd overflow.
	unwedge()
	want := int64(1 + depth + 1)
	deadline = time.Now().Add(5 * time.Second)
	for blocked.handled.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("consumer handled %d messages, want %d", blocked.handled.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMailboxNAKReachesRemoteSenderViaUplink: a refused request from a
// remote site must NAK through the uplink (the TCP transport), not vanish.
func TestMailboxNAKReachesRemoteSenderViaUplink(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	rt.SetMailboxDepth(1)
	naks := make(chan Envelope, 16)
	rt.SetUplink(func(e Envelope) { naks <- e })
	blocked := &blockingActor{entered: make(chan struct{}), release: make(chan struct{})}
	rt.Register(QMAddr(0), blocked)
	defer func() {
		close(blocked.release)
		rt.Shutdown()
	}()

	remote := RIAddr(7) // not registered locally
	req := func(seq uint64) Envelope {
		return Envelope{From: remote, To: QMAddr(0), Msg: model.RequestMsg{
			Txn: model.TxnID{Site: 7, Seq: seq}, Site: 7,
		}}
	}
	rt.Inject(req(0))
	<-blocked.entered
	rt.Inject(req(1)) // fills the depth-1 mailbox
	rt.Inject(req(2)) // must NAK via uplink
	select {
	case e := <-naks:
		if e.To != remote {
			t.Fatalf("NAK addressed to %v, want %v", e.To, remote)
		}
		if b, ok := e.Msg.(model.BusyMsg); !ok || b.Txn.Seq != 2 {
			t.Fatalf("NAK payload = %+v", e.Msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NAK never reached the uplink")
	}
}
