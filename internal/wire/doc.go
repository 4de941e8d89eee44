// Package wire is the v3 binary codec for everything the cluster exchanges:
// a hand-rolled, length-prefixed framing of engine.Envelope over the
// per-message field encoders in internal/model (stable one-byte tags, varint
// integers, no reflection anywhere on the path).
//
// # Frame layout
//
// A v3 stream is a sequence of frames, each:
//
//	uvarint payloadLen | payload
//
// where payload is:
//
//	fromKind(1) fromID(varint) fromShard(1)
//	toKind(1)   toID(varint)   toShard(1)
//	msgTag(1)   msgBody…
//
// payloadLen is capped at MaxFrameBytes; a reader that sees a larger prefix
// abandons the stream instead of allocating for it, and a payload that
// decodes short, long, or to an unknown tag errors cleanly — truncated or
// hostile input can never panic or hang the read loop (see the hardening and
// fuzz tests).
//
// # Pooling lifecycle
//
// The codec is allocation-free at steady state for the fixed-shape hot-path
// messages (the request/grant/release cycle that dominates traffic); the
// rare map- or Txn-carrying control messages allocate their sorted-key
// scratch per encode. A Writer owns one scratch
// buffer, drawn from a package pool at construction and returned by Release
// when its connection retires; every WriteEnvelope encodes into that scratch
// and copies it to the underlying buffered writer, so the per-message cost is
// pure byte appends. A Reader likewise owns one payload buffer that grows to
// the largest frame seen and is reused for every subsequent frame. Decoded
// messages are built on the stack by the model decoders; the one residual
// allocation per message is boxing the struct into the model.Message
// interface as it enters the runtime (plus the payload-owned slices of the
// rare control-plane messages that carry them).
//
// The version-byte handshake that opens a v3 stream lives in
// internal/transport; the WAL reuses the same model primitives for its
// record payloads.
package wire
