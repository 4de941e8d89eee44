// Package wal is the durability subsystem: an append-only, checksummed,
// segmented write-ahead log of implemented writes plus periodic snapshots of
// a site's storage.Store, and a recovery path that reconstructs the store
// from the newest valid snapshot and the checksummed log tail.
//
// The paper's model (§2) assumes failure-free sites; this package lifts that
// assumption so the system — and the simulator — can express site crashes.
// The log is layered over a Media abstraction with two implementations: a
// directory of real files (cmd/uccnode, `kill -9` recovery) and a
// deterministic in-memory medium (simulated fault injection, where a crash
// discards exactly the bytes that were never synced).
//
// Both the log records and the snapshots are version-aware: a Record carries
// the write's version ordinal and commit stamp, and a snapshot images each
// copy's full retained version chain, not just its latest value. Recovery
// therefore rebuilds the multi-version store exactly — a requirement of the
// read-only snapshot fast path, whose reads deferred across an outage carry
// pre-crash snapshot timestamps and still need their exact versions.
//
// Record payloads use the wire-v3 varint codec (the same model primitives
// the transport's message encoders use): a typical payload is ~15 bytes,
// ~23 framed. A frame is crc32C | len | payload; the length word's high bit
// is a required marker, and the checksum covers the length word with the
// payload, so any damaged frame ends replay — the tail is lost, never
// misread.
package wal
