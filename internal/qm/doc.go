// Package qm implements the Data Queue and Data Queue Manager of the
// Precedence-Assignment Model (§3.1) with the unified precedence space
// (§4.1) and the semi-lock precedence enforcement protocol (§4.2) of
// Wang & Li (ICDE 1988).
//
// One Manager runs per data site, partitioned into Options.Shards
// independent shards (hash of item → shard, model.ShardOfItem). Each shard
// owns a dataQueue per physical copy hashed to it, its own lock state and
// counters, and its own group-commit batch, behind its own mutex — and may
// be registered at its own engine address (engine.QMShardAddr), giving it a
// private mailbox goroutine on the real-time runtime. Conflict-free
// operations at one site therefore execute in parallel; operations on one
// item are always serialized by its owning shard, which is all the protocol
// requires. Each dataQueue keeps its entries sorted by unified precedence,
// tracks the R-TS/W-TS thresholds, assigns 2PL precedences from the biggest
// timestamp ever seen, rejects out-of-order T/O requests, computes PA
// back-off timestamps, and grants locks to HD(j) according to the semi-lock
// rules.
//
// Site-wide concerns deliberately stay un-sharded at the Manager:
//
//   - The commit sequencer (sequencer.go): a transaction's writes may span
//     shards, but its commit point is one atomic site-wide WAL sync. Shards
//     drain their dirty batches through a per-site leader/follower
//     sequencer, so concurrently expiring shard batches coalesce into one
//     media sync (cross-shard group commit) while each shard's write-ahead
//     guarantee — sync before the grant exposing the write — is preserved.
//     With no group-commit window a shard syncs once per mailbox backlog:
//     once a delivery journals a write, every send the shard makes is held
//     in order, and the shard keeps handling the messages waiting behind it
//     (engine.Context.Backlog, at most as many as waited at the first
//     write). Then one sequencer pass syncs the batch and the held sends
//     leave. A crash discards them with the unsynced tail. The simulator
//     reports no backlog, so there every delivery still ends synced.
//   - Crash and recovery (CrashMsg/RecoverMsg): a site fails as a unit;
//     every shard goes down together, defers its traffic, and drains in
//     per-shard arrival order after the store is rebuilt once from
//     snapshot + replay.
//   - Deadlock probes and the stats tick: aggregated across shards into
//     one per-site report.
//
// Two paths never touch the queues at all:
//
//   - Snapshot reads (SnapReadMsg): read-only transactions are answered
//     straight from the store's version chain at their snapshot timestamp —
//     no entry, no lock, no threshold check — and recorded into the history
//     log at the position of the version they observed.
//   - Durability control (CrashMsg/RecoverMsg/FlushMsg): the manager drives
//     when the site's write-ahead log syncs (once per mailbox backlog, or
//     deferred by a group-commit window) and how a crashed site defers
//     traffic until its store — version chains included — is rebuilt from
//     snapshot + replay.
//
// Backpressure: Options.MaxQueueDepth bounds every data queue. A request
// landing on a full queue — unless its transaction is already resident —
// is refused with a model.BusyMsg NAK (counted in Counters.Busy) rather
// than admitted, so overload stops at the queue bound and the refusal
// feeds the issuers' admission controllers instead of growing memory.
//
// Robustness: a valid wire message of a type the manager does not handle
// (a grant, say, misrouted by a peer) is dropped and counted in
// Counters.Unexpected; it never takes the site down.
package qm
