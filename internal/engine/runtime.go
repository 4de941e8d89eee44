package engine

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ucc/internal/model"
)

// Envelope is one in-flight message.
type Envelope struct {
	From Addr
	To   Addr
	Msg  model.Message
}

// Runtime is the real-time engine: every actor gets a mailbox and a
// goroutine, and Send delivers on the sender's goroutine — straight into the
// destination mailbox, or through the uplink (the TCP transport) for actors
// registered elsewhere.
//
// FIFO guarantee: messages between one (sender, receiver) pair are delivered
// in send order, as they would be over a TCP connection — an actor sends from
// one goroutine, and each push lands in order in one mailbox.
type Runtime struct {
	seed int64

	// actors is copy-on-write: Register replaces the whole map, so the send
	// path looks a mailbox up with one atomic load and no lock (actors are
	// only ever added). mu serializes the writers.
	actors atomic.Pointer[map[Addr]*mailbox]
	uplink atomic.Pointer[func(Envelope)]
	mu     sync.Mutex
	start  time.Time
	epoch  int64 // start as wall-clock µs since the Unix epoch
	wg     sync.WaitGroup

	// mailboxDepth bounds every mailbox registered after SetMailboxDepth:
	// sheddable messages (model.Sheddable — new-work openers) arriving at a
	// full mailbox are NAK'd back to their sender with a BusyMsg instead of
	// enqueued; everything else still enqueues, because dropping an in-flight
	// protocol message (a release, a grant) would strand locks forever. Zero
	// means unbounded, the pre-backpressure behaviour.
	mailboxDepth int
	// overflows counts sheddable messages NAK'd at a full mailbox.
	overflows atomic.Uint64
}

type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []Envelope
	// head indexes the next unpopped element; popping advances it instead of
	// re-slicing, so the backing array is reused once the queue empties rather
	// than re-grown for every burst.
	head int
	done bool
	// bound is the depth at which sheddable messages are refused (0 =
	// unbounded); high is the deepest the queue has ever been.
	bound int
	high  int
}

// depth returns the number of undelivered messages. Callers hold m.mu.
func (m *mailbox) depth() int { return len(m.queue) - m.head }

func newMailbox(bound int) *mailbox {
	m := &mailbox{bound: bound}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push enqueues e, reporting false when e is sheddable and the mailbox is at
// its bound (the caller NAKs). Non-sheddable messages enqueue past the bound:
// the bound must never block or drop protocol-completion traffic, or a full
// mailbox would hold locks forever — the classic bounded-queue deadlock this
// policy exists to avoid.
func (m *mailbox) push(e Envelope) bool {
	m.mu.Lock()
	if !m.done {
		if m.bound > 0 && m.depth() >= m.bound {
			if _, shed := e.Msg.(model.Sheddable); shed {
				m.mu.Unlock()
				return false
			}
		}
		m.queue = append(m.queue, e)
		if d := m.depth(); d > m.high {
			m.high = d
		}
	}
	m.mu.Unlock()
	m.cond.Signal()
	return true
}

func (m *mailbox) pop() (Envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.depth() == 0 && !m.done {
		m.cond.Wait()
	}
	if m.done {
		return Envelope{}, false
	}
	e := m.queue[m.head]
	m.queue[m.head] = Envelope{} // release the message for reuse/GC
	m.head++
	if m.head == len(m.queue) {
		m.queue = m.queue[:0]
		m.head = 0
	}
	return e, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.done = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// NewRuntime builds a real-time engine with the given random seed. Delivery
// is direct, so the runtime has no latency model: latency must be nil or the
// zero FixedLatency (latency models belong to the virtual-time simulator),
// and anything else panics rather than being silently ignored.
func NewRuntime(latency LatencyModel, seed int64) *Runtime {
	if f, ok := latency.(FixedLatency); latency != nil && (!ok || f != FixedLatency{}) {
		panic(fmt.Sprintf("engine: the runtime delivers directly and takes no latency model, got %#v", latency))
	}
	now := time.Now()
	r := &Runtime{seed: seed, start: now, epoch: now.UnixMicro()}
	r.actors.Store(&map[Addr]*mailbox{})
	return r
}

// SetUplink installs the forwarding function for envelopes addressed to
// actors not registered locally (the TCP transport). Must be called before
// traffic flows.
func (r *Runtime) SetUplink(f func(Envelope)) { r.uplink.Store(&f) }

// SetMailboxDepth bounds the mailboxes of actors registered after this call:
// sheddable messages (new-work openers) arriving at a full mailbox are NAK'd
// back to the sender with model.BusyMsg; protocol-completion messages still
// enqueue past the bound. Zero (the default) keeps mailboxes unbounded. Call
// before Register.
func (r *Runtime) SetMailboxDepth(depth int) {
	r.mu.Lock()
	r.mailboxDepth = depth
	r.mu.Unlock()
}

// mailboxOf returns the mailbox of a locally registered actor, or nil.
func (r *Runtime) mailboxOf(a Addr) *mailbox { return (*r.actors.Load())[a] }

// MailboxStats reports (sheddable messages NAK'd at a full mailbox, deepest
// any mailbox has ever been). With only sheddable traffic in flight the
// high-water mark never exceeds the configured depth; completer traffic may
// push past it by its own (small, protocol-bounded) amount.
func (r *Runtime) MailboxStats() (overflows uint64, highWater int) {
	for _, mb := range *r.actors.Load() {
		mb.mu.Lock()
		if mb.high > highWater {
			highWater = mb.high
		}
		mb.mu.Unlock()
	}
	return r.overflows.Load(), highWater
}

// nak answers a refused sheddable envelope with its BusyMsg, delivered
// straight to the sender's mailbox (or the uplink for remote senders). The
// NAK itself is never sheddable, so this cannot recurse.
func (r *Runtime) nak(env Envelope) {
	r.overflows.Add(1)
	sh, ok := env.Msg.(model.Sheddable)
	if !ok {
		return
	}
	back := Envelope{From: env.To, To: env.From, Msg: sh.Busy()}
	// The refused message dies here: the Busy reply above copied everything
	// it needs, so a pooled original goes back to its pool now.
	model.RecycleMessage(env.Msg)
	if mb := r.mailboxOf(back.To); mb != nil {
		mb.push(back)
		return
	}
	if up := r.uplink.Load(); up != nil {
		(*up)(back)
	}
}

// Register adds an actor and starts its mailbox goroutine.
func (r *Runtime) Register(addr Addr, a Actor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.actors.Load()
	if _, dup := old[addr]; dup {
		panic(fmt.Sprintf("engine: duplicate actor %v", addr))
	}
	mb := newMailbox(r.mailboxDepth)
	actors := maps.Clone(old)
	actors[addr] = mb
	r.actors.Store(&actors)
	rng := rand.New(rand.NewSource(r.seed ^ int64(addr.Kind)<<32 ^ int64(addr.ID)<<8 ^ 0x9e3779b9))
	ctx := &rtContext{rt: r, self: addr, mb: mb, rng: rng}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			env, ok := mb.pop()
			if !ok {
				return
			}
			a.OnMessage(ctx, env.From, env.Msg)
			// Ownership transferred at Send: the delivery layer recycles
			// pooled messages once the handler returns (handlers that defer
			// a message past their return copy it via model.UnpoolMessage).
			model.RecycleMessage(env.Msg)
		}
	}()
}

// Inject delivers an envelope that arrived from a remote node straight into
// the destination mailbox. An envelope addressed to an actor not registered
// here is dropped — inbound wire traffic for another site must not loop back
// out.
func (r *Runtime) Inject(env Envelope) {
	if mb := r.mailboxOf(env.To); mb != nil && !mb.push(env) {
		r.nak(env)
	}
}

// Post routes a locally originated envelope exactly like an actor's Send: a
// registered actor gets it in its mailbox (full mailbox → busy NAK), anything
// else forwards through the uplink to its site. Use this — not Inject — to
// originate traffic that may target remote actors (e.g. a node publishing a
// partition-map epoch to its peers).
func (r *Runtime) Post(env Envelope) {
	if mb := r.mailboxOf(env.To); mb != nil {
		if !mb.push(env) {
			r.nak(env)
		}
		return
	}
	if up := r.uplink.Load(); up != nil {
		(*up)(unpoolEnv(env))
	}
}

// unpoolEnv detaches env from the message pools before it crosses into the
// transport: the uplink queues envelopes asynchronously (send queues, batch
// encoding), which outlives the sender's call frame, so a pooled message is
// copied out to its value form and the original recycled here.
func unpoolEnv(env Envelope) Envelope {
	orig := env.Msg
	env.Msg = model.UnpoolMessage(orig)
	model.RecycleMessage(orig)
	return env
}

// Shutdown stops all actor goroutines. Later sends and pending timers land
// in closed mailboxes and are dropped.
func (r *Runtime) Shutdown() {
	for _, mb := range *r.actors.Load() {
		mb.close()
	}
	r.wg.Wait()
}

// NowMicros returns wall-clock microseconds since the Unix epoch, advanced
// by the process's monotonic clock (immune to wall-clock jumps after start).
// The epoch anchoring matters across processes: commit stamps and snapshot
// timestamps (ReleaseMsg.CommitMicros, SnapReadMsg.SnapMicros) are compared
// across sites, so every uccnode — including one restarted after a crash —
// must draw from one loosely synchronized timeline, not from its own
// process-start offset.
func (r *Runtime) NowMicros() int64 { return r.epoch + time.Since(r.start).Microseconds() }

type rtContext struct {
	rt   *Runtime
	self Addr
	mb   *mailbox
	rng  *rand.Rand
}

func (c *rtContext) NowMicros() int64 { return c.rt.NowMicros() }
func (c *rtContext) Self() Addr       { return c.self }
func (c *rtContext) Rand() *rand.Rand { return c.rng }

func (c *rtContext) Send(to Addr, msg model.Message) {
	c.rt.Post(Envelope{From: c.self, To: to, Msg: msg})
}

func (c *rtContext) Backlog() int {
	c.mb.mu.Lock()
	defer c.mb.mu.Unlock()
	return c.mb.depth()
}

func (c *rtContext) SetTimer(delayMicros int64, msg model.Message) {
	env := Envelope{From: c.self, To: c.self, Msg: msg}
	if delayMicros <= 0 {
		c.mb.push(env)
		return
	}
	time.AfterFunc(time.Duration(delayMicros)*time.Microsecond, func() { c.mb.push(env) })
}
