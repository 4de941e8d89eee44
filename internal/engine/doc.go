// Package engine defines the actor abstraction shared by the deterministic
// virtual-time simulator (internal/sim) and the real-time goroutine runtime
// (this package). Protocol state machines — queue managers, request issuers,
// the deadlock coordinator, workload drivers — are written once against
// Actor/Context and run unchanged on either engine, and across the TCP
// transport.
//
// The package also defines the address space (one Addr per actor role and
// site) and the pluggable network LatencyModel. Latency models belong to the
// simulator. There, latency jitter is load-bearing for the protocols:
// without it every queue sees requests in timestamp order and T/O never
// rejects. The models are bounded, which is also what the read-only snapshot
// fast path's staleness margin leans on — a release older than the margin
// has always arrived.
//
// The runtime applies no latency model. A Send is delivered on the sender's
// goroutine, like Runtime.Post: it is pushed into the destination mailbox or
// handed to the uplink (the TCP transport) for a remote actor. Delivery is
// therefore synchronous and FIFO per (sender, receiver) pair; a remote
// destination adds the transport's own queueing and TCP's ordering.
// Context.Backlog reports how many messages wait behind the current
// delivery, which lets a handler batch work (the queue manager's one WAL sync
// per backlog); the simulator reports 0.
//
// Backpressure: the real-time runtime's mailboxes can be bounded
// (Runtime.SetMailboxDepth). A sheddable message (model.Sheddable — the
// new-work openers, RequestMsg and SnapReadMsg) arriving at a full mailbox
// is NAK'd back to its sender as a model.BusyMsg instead of enqueued;
// protocol-completion messages (grants, releases, aborts) always enqueue,
// even past the bound, because dropping one would strand locks forever.
// Nothing ever blocks a sender, which is what makes the bound
// deadlock-free. The virtual-time simulator needs no mailbox bound — its
// equivalent pressure point is the queue manager's MaxQueueDepth.
package engine
