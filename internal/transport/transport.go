package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ucc/internal/engine"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/wire"
)

// WireVersion is the first byte a dialer writes on a fresh connection: the
// wire-v3 binary codec (internal/wire), length-prefixed frames of
// explicitly-encoded envelopes, no reflection, pooled buffers. A listener
// that reads any other byte closes the connection instead of feeding
// misframed bytes to the decoder.
const WireVersion byte = 3

// wireAckV3 is the single byte a listener writes back after reading the
// version byte. It is the only byte a peer ever sends on a dialer's
// connection; a dialer that does not get it treats the dial as failed.
const wireAckV3 byte = 0xC3

// handshakeTimeout bounds the dialer's wait for the ack. A live peer acks
// in one RTT, so this only fires against a peer that accepted the
// connection and then stalled — or one that does not speak v3.
const handshakeTimeout = 3 * time.Second

// defaultBatchBytes is the mid-batch flush threshold: while draining a large
// backlog the writer flushes whenever this much is buffered, bounding memory
// and keeping the pipe busy instead of building one giant frame.
const defaultBatchBytes = 64 << 10

// Topology statically assigns every actor address to a named peer.
type Topology struct {
	// Peers maps peer name → TCP address.
	Peers map[string]string
	// Assign returns the peer name hosting an actor address.
	Assign func(engine.Addr) string
}

// ParsePeerList splits a comma-separated site address list (index = site
// id): at least one entry, none empty, whitespace trimmed.
func ParsePeerList(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, fmt.Errorf("transport: peer list is empty")
	}
	parts := strings.Split(csv, ",")
	out := make([]string, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("transport: peer list entry %d is empty", i)
		}
		out[i] = p
	}
	return out, nil
}

// StandardTopology builds the topology cmd/uccnode and cmd/uccclient share:
// site i's actors on peer "site<i>", the collector (plus drivers and
// anything unknown) on "client". clientAddr may be empty for a node that
// has not yet learned the client's address (the client connects inbound).
func StandardTopology(peers []string, clientAddr string) Topology {
	topo := Topology{
		Peers:  map[string]string{},
		Assign: StandardAssign("client"),
	}
	for i, addr := range peers {
		topo.Peers[fmt.Sprintf("site%d", i)] = addr
	}
	if clientAddr != "" {
		topo.Peers["client"] = clientAddr
	}
	return topo
}

// StandardAssign places QM(i)/RI(i)/Driver(i) on peer "site<i>" (every QM
// shard of a site lives with the site), the deadlock detector on "site0",
// and the collector (plus anything unknown) on clientPeer — the layout
// cmd/uccnode and cmd/uccclient use.
func StandardAssign(clientPeer string) func(engine.Addr) string {
	return func(a engine.Addr) string {
		switch a.Kind {
		case engine.KindQM, engine.KindRI:
			return fmt.Sprintf("site%d", a.ID)
		case engine.KindDetector:
			return "site0"
		default:
			return clientPeer
		}
	}
}

// Node connects one process's runtime to the topology.
//
// Outbound wire path: envelopes for a peer are enqueued on that peer's
// outbox and drained by one writer goroutine, which encodes every queued
// envelope as a v3 frame into a buffered writer and flushes once per
// drained batch (or at BatchBytes mid-batch) — one framed write instead of
// one syscall-sized write per envelope. Under load the batch size grows
// naturally; when idle, a lone envelope flushes immediately, adding no
// latency.
type Node struct {
	self       string
	topo       Topology
	rt         *engine.Runtime
	batchBytes int
	// batchDelay, when positive, makes the writer linger once per batch for
	// this long before flushing, trading latency for bigger coalesced
	// writes. Zero (the default) flushes as soon as the outbox drains.
	batchDelay time.Duration

	mu       sync.Mutex
	senders  map[string]*peerSender
	outbound map[net.Conn]bool
	inbound  map[net.Conn]bool
	ln       net.Listener
	closed   bool
	wg       sync.WaitGroup

	// sendQueueCap bounds each peer outbox (0 = unbounded): when an enqueue
	// would exceed it, the OLDEST queued sheddable envelope is dropped to
	// make room and its BusyMsg NAK is injected back to the local sender —
	// the same refusal the engine delivers for a full mailbox, so the
	// issuer's attempt aborts (releasing its requests elsewhere) instead of
	// stranding in negotiation. Oldest-first is the right policy for this
	// protocol: a stale request is re-sent by its issuer's restart machinery
	// anyway, while the newest traffic is most likely to still matter. Only
	// sheddable messages
	// (model.Sheddable — new-work openers) are ever evicted, mirroring the
	// engine's mailbox policy: dropping a release or grant to a live-but-slow
	// peer would strand its locks forever, so completer traffic rides past
	// the cap (it is protocol-bounded by the in-flight work the openers
	// admitted). The cap counts only the outbox — a batch the writer has
	// already taken (and may be retrying across a reconnect) is in flight,
	// not queued, so a reconnect cannot double-shrink the budget or lose
	// accounting.
	sendQueueCap int

	// Batching observability (tests, diagnostics).
	sentEnvelopes atomic.Uint64
	flushes       atomic.Uint64
	// wireStats counts codec-level traffic: envelopes/bytes each way and
	// outbound connections opened.
	wireStats metrics.WireCounters
	// droppedSends counts every envelope the transport discarded — cap
	// evictions plus whole batches dropped on an unreachable peer;
	// queueHigh is the deepest any peer outbox has ever been.
	droppedSends atomic.Uint64
	queueHigh    atomic.Int64
}

// peerSender owns the outbox and the single writer goroutine for one peer.
// The writer is the only goroutine that ever touches the peer's connection
// or encoder, which is what makes reconnection safe: a retired connection's
// half-written frame dies with its socket and its buffered writer; the
// replacement gets a fresh socket and a fresh buffered writer, so no stale
// bytes can interleave with the new connection's first batch.
type peerSender struct {
	n    *Node
	peer string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []engine.Envelope
	closed bool
	// shedHint is the index where the eviction scan for the oldest sheddable
	// envelope resumes. Everything before it is known non-sheddable: completers
	// are never evicted and only leave the queue when the writer takes the
	// whole backlog (which resets the hint), so the hint only moves forward
	// between takes and eviction is O(1) amortized instead of an O(n) scan per
	// enqueue at the cap.
	shedHint int
}

// NewNode wires rt's uplink into the topology and starts listening on
// listenAddr (empty string = outbound-only peer, e.g. a client that other
// peers never dial).
func NewNode(rt *engine.Runtime, self, listenAddr string, topo Topology) (*Node, error) {
	if topo.Assign == nil {
		return nil, fmt.Errorf("transport: topology needs an Assign function")
	}
	n := &Node{
		self: self, topo: topo, rt: rt,
		batchBytes: defaultBatchBytes,
		senders:    map[string]*peerSender{},
		outbound:   map[net.Conn]bool{},
		inbound:    map[net.Conn]bool{},
	}
	rt.SetUplink(n.forward)
	if listenAddr != "" {
		ln, err := net.Listen("tcp", listenAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
		}
		n.ln = ln
		n.wg.Add(1)
		go n.acceptLoop()
	}
	return n, nil
}

// SetBatching overrides the outbound batching knobs: flushBytes is the
// mid-batch flush threshold (≤0 keeps the default), delay an optional linger
// before each flush. Call before traffic flows.
func (n *Node) SetBatching(flushBytes int, delay time.Duration) {
	if flushBytes > 0 {
		n.batchBytes = flushBytes
	}
	n.batchDelay = delay
}

// BatchStats reports (envelopes sent over the wire, flushes performed). The
// ratio is the coalescing factor; envelopes/flushes = 1 means no batching
// happened (idle traffic), larger means one flush amortized syscalls
// across that many envelopes.
func (n *Node) BatchStats() (envelopes, flushes uint64) {
	return n.sentEnvelopes.Load(), n.flushes.Load()
}

// Wire exposes the codec-level counters: envelopes and bytes each way, plus
// the number of outbound connections that completed the v3 handshake.
func (n *Node) Wire() *metrics.WireCounters { return &n.wireStats }

// SetSendQueueCap bounds every peer outbox to cap envelopes; an enqueue at
// the cap drops the oldest queued sheddable envelope to make room (counted
// in QueueStats) and NAKs it back to the local sender with its BusyMsg, so
// the issuing attempt aborts instead of waiting forever on a reply that
// will never come. Completion traffic is never evicted and may ride past
// the cap. Zero (the default) keeps outboxes unbounded. Call before traffic
// flows.
func (n *Node) SetSendQueueCap(cap int) {
	n.mu.Lock()
	n.sendQueueCap = cap
	n.mu.Unlock()
}

// QueueStats reports (envelopes the transport discarded — send-queue-cap
// evictions plus batches dropped on an unreachable peer — and the deepest
// any peer outbox has ever been). With a cap configured, sheddable traffic
// can never push the high-water mark past it — including while a writer is
// stuck dialing a dead peer or retrying a batch across a reconnect, the
// exact regimes where unbounded outboxes used to melt the node; only
// protocol-completion messages (never evicted by design) can exceed it, by
// the protocol-bounded amount of work in flight.
func (n *Node) QueueStats() (dropped uint64, highWater int) {
	return n.droppedSends.Load(), int(n.queueHigh.Load())
}

// Addr returns the bound listen address (tests pass ":0").
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.inbound[c] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(c)
	}
}

// readLoop serves one inbound connection: a v3 version byte is acked and
// followed by binary frames; anything else drops the connection.
func (n *Node) readLoop(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.inbound, c)
		n.mu.Unlock()
	}()
	br := bufio.NewReader(c)
	if vb, err := br.ReadByte(); err != nil || vb != WireVersion {
		return // wrong protocol era (or a port scanner); drop the conn
	}
	if _, err := c.Write([]byte{wireAckV3}); err != nil {
		return
	}
	rd := wire.NewReader(br)
	defer rd.Release()
	for {
		// BytesIn counts decoded frame bytes — the frame layer, matching
		// BytesOut on the sending side — not raw socket reads, which would
		// include read-ahead for frames never decoded.
		env, frameBytes, err := rd.ReadEnvelope()
		if errors.Is(err, model.ErrWireUnknownTag) {
			// A message type appended by a NEWER build: the frame was fully
			// consumed (length-prefixed for exactly this reason), so skip it
			// and keep the stream — severing would drop the whole batch
			// around it and melt a mixed-version fleet into a redial loop
			// during rolling upgrades. This node couldn't have processed the
			// message anyway. Skipped frames count only in UnknownIn — adding
			// their bytes to BytesIn with no MsgsIn would skew B/msg.
			n.wireStats.UnknownIn.Add(1)
			continue
		}
		if err != nil {
			return // EOF, torn frame, or corrupt input: drop the conn
		}
		n.wireStats.BytesIn.Add(uint64(frameBytes))
		n.wireStats.MsgsIn.Add(1)
		//ucclint:allow postnotinject -- terminal inbound delivery: this node is the envelope's destination; Post would re-route through the topology
		n.rt.Inject(env)
	}
}

// forward routes an envelope produced by the local runtime: local
// destinations short-circuit into the runtime; remote ones enqueue on the
// destination peer's outbox for its writer goroutine to batch onto the wire.
func (n *Node) forward(env engine.Envelope) {
	peer := n.topo.Assign(env.To)
	if peer == n.self {
		//ucclint:allow postnotinject -- forward IS Post's routing backend; the local short-circuit must Inject or it would recurse
		n.rt.Inject(env)
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	ps := n.senders[peer]
	if ps == nil {
		ps = &peerSender{n: n, peer: peer}
		ps.cond = sync.NewCond(&ps.mu)
		n.senders[peer] = ps
		n.wg.Add(1)
		go ps.run()
	}
	cap := n.sendQueueCap
	n.mu.Unlock()

	ps.mu.Lock()
	var nak engine.Envelope
	haveNak := false
	if !ps.closed {
		if cap > 0 && len(ps.queue) >= cap {
			// Evict the oldest SHEDDABLE envelope (in place, so the backing
			// array is reused), resuming the scan at shedHint — everything
			// before it is completers, which never leave except by a whole-
			// queue take. If the backlog is all completers, grow past the cap
			// instead — the bound is hard for openers, soft for completion
			// traffic whose loss would wedge the protocol.
			for i := ps.shedHint; i < len(ps.queue); i++ {
				if b, ok := busyNAK(ps.queue[i]); ok {
					nak = b
					haveNak = true
					copy(ps.queue[i:], ps.queue[i+1:])
					ps.queue = ps.queue[:len(ps.queue)-1]
					n.droppedSends.Add(1)
					ps.shedHint = i
					break
				}
				ps.shedHint = i + 1
			}
		}
		ps.queue = append(ps.queue, env)
		for d := int64(len(ps.queue)); ; {
			prev := n.queueHigh.Load()
			if d <= prev || n.queueHigh.CompareAndSwap(prev, d) {
				break
			}
		}
		ps.cond.Signal()
	}
	ps.mu.Unlock()
	if haveNak {
		// NAK the evicted envelope back to its (local) sender, exactly as the
		// engine NAKs a sheddable refused at a full mailbox (Runtime.nak):
		// silence here would strand the issuer's attempt in negotiation
		// forever — its already-admitted requests at other sites would hold
		// queue entries with no wait-cycle for the deadlock detector to break.
		// The BusyMsg is not itself sheddable, so Inject always delivers it.
		//ucclint:allow postnotinject -- NAK to the evicted envelope's local sender: busyNAK only produces locally-addressed envelopes
		n.rt.Inject(nak)
	}
}

// take blocks until the outbox is non-empty (or the sender is closed) and
// returns the whole backlog.
func (ps *peerSender) take() ([]engine.Envelope, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for len(ps.queue) == 0 && !ps.closed {
		ps.cond.Wait()
	}
	if len(ps.queue) == 0 {
		return nil, false // closed and drained
	}
	batch := ps.queue
	ps.queue = nil
	ps.shedHint = 0
	return batch, true
}

// tryTake returns any backlog without blocking (batch growth between
// encoding and flushing).
func (ps *peerSender) tryTake() []engine.Envelope {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	batch := ps.queue
	ps.queue = nil
	ps.shedHint = 0
	return batch
}

// peerConn bundles the per-connection encoding state. It is rebuilt from
// scratch on every (re)dial — see peerSender for why reuse would corrupt the
// stream.
type peerConn struct {
	c  net.Conn
	bw *bufio.Writer
	w  *wire.Writer
}

// connect dials the peer and runs the v3 handshake: the dialer writes the
// version byte raw on the socket and waits briefly for the listener's ack.
// A peer that closes on the byte, answers with anything else, or never
// answers fails the dial exactly like an unreachable one — the caller drops
// and NAKs the batch, and the next batch redials. The close-detection drain
// goroutine starts only after the handshake: the ack is the one byte a peer
// ever sends on a dialer's connection, and the handshake read must be the
// one to consume it.
func (ps *peerSender) connect() (*peerConn, error) {
	n := ps.n
	c, err := n.dialRaw(ps.peer)
	if err != nil {
		return nil, err
	}
	if _, err := c.Write([]byte{WireVersion}); err != nil {
		n.unregister(c)
		return nil, err
	}
	var ack [1]byte
	c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	_, err = io.ReadFull(c, ack[:])
	c.SetReadDeadline(time.Time{})
	if err == nil && ack[0] != wireAckV3 {
		err = fmt.Errorf("transport: peer %s acked with %#x, want %#x", ps.peer, ack[0], wireAckV3)
	}
	if err != nil {
		n.unregister(c)
		return nil, err
	}
	n.startDrain(c)
	// BytesOut is counted per frame on batch success (writeBatch), matching
	// the receiver's frame-layer count — socket-layer counting would
	// re-count a batch retried across a reconnect after a mid-batch flush.
	bw := bufio.NewWriterSize(c, n.batchBytes)
	n.wireStats.V3Conns.Add(1)
	return &peerConn{c: c, bw: bw, w: wire.NewWriter(bw)}, nil
}

// run is the writer loop: take the backlog, encode it all, flush once.
// A send that fails on a stale connection (the peer crashed and restarted
// since the dial) is retried once on a fresh dial: without retransmission in
// the protocol, a single lost request would leave its transaction hung
// holding locks for the rest of the run. A peer that is genuinely down still
// drops the batch — the protocol tolerates that as a crashed site — but the
// batch's sheddable envelopes are NAK'd back to their local senders first
// (nakBatch): a silently dropped RequestMsg would strand its attempt in
// negotiation forever, the same wedge the send-queue cap's eviction NAK
// closes. A batch that was partially received before its connection died is
// re-sent whole, so a reconnect may duplicate envelopes; the protocol's
// attempt tagging absorbs duplicates (queue managers drop stale re-requests
// defensively, and supersede a resident entry when a newer attempt's request
// arrives — which also retires any entry a NAK'd-but-partially-delivered
// request left behind once its restart re-requests the copy).
func (ps *peerSender) run() {
	defer ps.n.wg.Done()
	var pc *peerConn
	retire := func() {
		if pc != nil {
			pc.w.Release() // scratch buffer back to the codec pool
			pc.c.Close()
			ps.n.mu.Lock()
			delete(ps.n.outbound, pc.c)
			ps.n.mu.Unlock()
			pc = nil
		}
	}
	defer retire()
	for {
		batch, ok := ps.take()
		if !ok {
			return
		}
		if ps.n.batchDelay > 0 {
			// Optional linger: let the batch grow before it is framed. The
			// grown batch is still retried as a unit on a dead connection.
			time.Sleep(ps.n.batchDelay)
			batch = append(batch, ps.tryTake()...)
		}
		sent := false
		for attempt := 0; attempt < 2; attempt++ {
			if pc == nil {
				var err error
				if pc, err = ps.connect(); err != nil {
					break // unreachable peer: drop the batch (NAK'd below)
				}
			}
			var err error
			if batch, err = ps.writeBatch(pc, batch); err == nil {
				sent = true
				break
			}
			// The connection is dead: retire it — along with any
			// half-written frame buffered for it — and retry the whole batch
			// exactly once on a fresh dial.
			retire()
		}
		if !sent {
			ps.n.droppedSends.Add(uint64(len(batch)))
			ps.n.nakBatch(batch)
		}
	}
}

// nakBatch answers every sheddable envelope of a dropped batch with its
// BusyMsg NAK to the local sender, exactly as forward does for a cap
// eviction: the peer is unreachable (dead dial, or a write that failed twice)
// and the issuer has no attempt timeout, so silence would strand each
// dropped request's attempt forever while its admitted requests at other
// sites hold queue entries. Completers are dropped without a NAK — that is
// the crashed-site semantics the protocol tolerates, and they have no Busy
// form. The NAKs are best-effort abort triggers: if a request in a
// partially-received batch did reach the peer, the restarted attempt's
// re-request supersedes the resident entry at the queue manager.
func (n *Node) nakBatch(batch []engine.Envelope) {
	for _, env := range batch {
		if nak, ok := busyNAK(env); ok {
			//ucclint:allow postnotinject -- NAK to the dead batch's local sender: busyNAK only produces locally-addressed envelopes
			n.rt.Inject(nak)
		}
	}
}

// busyNAK inverts a sheddable envelope into its BusyMsg NAK toward the
// sender (the same inversion engine.Runtime.nak performs for a refused
// mailbox push); ok is false for non-sheddable messages, which have no Busy
// form and are never refused.
func busyNAK(env engine.Envelope) (engine.Envelope, bool) {
	sh, ok := env.Msg.(model.Sheddable)
	if !ok {
		return engine.Envelope{}, false
	}
	return engine.Envelope{From: env.To, To: env.From, Msg: sh.Busy()}, true
}

// writeBatch encodes one batch into the connection's buffered writer and
// flushes once at the end, plus at BatchBytes boundaries so a huge
// backlog cannot buffer unboundedly. Envelopes that arrive while encoding
// simply form the next batch — the writer loop takes them on its next
// iteration, so they are never orphaned by a retry of the current batch.
// Stats are counted only on success, so a retried batch is not
// double-counted and the envelopes/flushes ratio keeps meaning "coalescing
// on the wire" even across reconnects.
// writeBatch returns the batch with permanently-dropped envelopes removed:
// an envelope that failed ENCODING is a property of the envelope, not the
// connection, so it is NAK'd/counted exactly once here and excluded from the
// slice the caller retries (or terminally NAKs via nakBatch) — otherwise a
// batch retry would double-count the drop and inject duplicate NAKs for the
// same attempt. An I/O error, by contrast, returns the (possibly compacted)
// batch for a whole-batch retry on a fresh connection.
func (ps *peerSender) writeBatch(pc *peerConn, batch []engine.Envelope) ([]engine.Envelope, error) {
	flushes := uint64(0)
	frameBytes := uint64(0)
	for i := 0; i < len(batch); {
		env := batch[i]
		nb, err := pc.w.WriteEnvelope(env)
		if err != nil {
			var ee *wire.EncodeError
			if errors.As(err, &ee) {
				// Unencodable (no wire tag, oversized frame): drop it and keep
				// the stream alive — a retry would fail identically and melt
				// the writer into a redial loop. Like every other transport
				// drop, a sheddable envelope is NAK'd back to its local
				// sender; silence would strand the issuer's attempt in
				// negotiation forever.
				ps.n.droppedSends.Add(1)
				if nak, ok := busyNAK(env); ok {
					//ucclint:allow postnotinject -- NAK to the unencodable envelope's local sender: busyNAK only produces locally-addressed envelopes
					ps.n.rt.Inject(nak)
				}
				batch = append(batch[:i], batch[i+1:]...)
				continue
			}
			return batch, err
		}
		frameBytes += uint64(nb)
		i++
		if pc.bw.Buffered() >= ps.n.batchBytes {
			flushes++
			if err := pc.bw.Flush(); err != nil {
				return batch, err
			}
		}
	}
	if err := pc.bw.Flush(); err != nil {
		return batch, err
	}
	ps.n.sentEnvelopes.Add(uint64(len(batch)))
	ps.n.wireStats.MsgsOut.Add(uint64(len(batch)))
	// Frame-layer byte count, success-only like MsgsOut, so a batch retried
	// across a reconnect is never double-counted and sender/receiver B/msg
	// agree.
	ps.n.wireStats.BytesOut.Add(frameBytes)
	ps.n.flushes.Add(flushes + 1)
	return batch, nil
}

// dialRaw opens a fresh connection to peer and registers it for Close()
// teardown, but starts no reader: the caller runs the handshake first (its
// read must be the one that consumes the listener's ack byte), then hands
// the connection to startDrain.
func (n *Node) dialRaw(peer string) (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: node closed")
	}
	addr, ok := n.topo.Peers[peer]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown peer %q", peer)
	}
	c, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("transport: node closed")
	}
	n.outbound[c] = true
	n.mu.Unlock()
	return c, nil
}

// unregister closes and forgets a connection that never reached startDrain
// (failed handshake, failed version-byte write).
func (n *Node) unregister(c net.Conn) {
	c.Close()
	n.mu.Lock()
	delete(n.outbound, c)
	n.mu.Unlock()
}

// startDrain attaches the close-detection reader to a handshaken outbound
// connection. Outbound connections carry no inbound traffic after the
// ack (each peer sends on its own dials), so a blocked read
// detects the peer closing — crash or restart — the moment it happens.
// Without it, writes into a dead connection keep "succeeding" until the
// kernel surfaces the RST, silently losing every message in between.
func (n *Node) startDrain(c net.Conn) {
	n.wg.Add(1)
	go n.drainLoop(c)
}

// drainLoop blocks reading an outbound connection; EOF/RST closes it so the
// owning writer's next flush fails fast and redials the (possibly
// restarted) peer.
func (n *Node) drainLoop(c net.Conn) {
	defer n.wg.Done()
	buf := make([]byte, 256)
	for {
		if _, err := c.Read(buf); err != nil {
			break
		}
	}
	c.Close()
	n.mu.Lock()
	delete(n.outbound, c)
	n.mu.Unlock()
}

// Close shuts the node down, closing the listener and every outbound and
// inbound connection (read loops block in Decode until their connection
// closes, so inbound sockets must be closed too or Close would hang), and
// waking every writer goroutine so it can drain and exit.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	if n.ln != nil {
		n.ln.Close()
	}
	senders := make([]*peerSender, 0, len(n.senders))
	for _, ps := range n.senders {
		senders = append(senders, ps)
	}
	for c := range n.outbound {
		c.Close()
	}
	for c := range n.inbound {
		c.Close()
	}
	n.mu.Unlock()
	for _, ps := range senders {
		ps.mu.Lock()
		ps.closed = true
		ps.queue = nil
		ps.cond.Broadcast()
		ps.mu.Unlock()
	}
	n.wg.Wait()
}
