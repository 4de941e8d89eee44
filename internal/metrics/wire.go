package metrics

import "sync/atomic"

// WireCounters aggregate the transport's codec-level traffic: envelopes and
// bytes each way, and the outbound connections opened. The transport owns
// one instance and bumps it from its reader and writer goroutines;
// everything is atomic so snapshots are safe from any goroutine. Bytes are
// counted at the frame layer (encoded frames, before the kernel) in both
// directions, so BytesOut/MsgsOut and BytesIn/MsgsIn are the real wire cost
// per message the codec achieves and the two ends of a link agree.
type WireCounters struct {
	MsgsOut  atomic.Uint64
	BytesOut atomic.Uint64
	MsgsIn   atomic.Uint64
	BytesIn  atomic.Uint64
	// V3Conns counts outbound connections that completed the v3 handshake.
	V3Conns atomic.Uint64
	// UnknownIn counts v3 frames skipped because they carried a message tag
	// this build doesn't know — traffic from a NEWER peer during a rolling
	// upgrade. Skipped frames are excluded from MsgsIn/BytesIn (they are
	// not decoded messages, and counting their bytes without a message
	// would skew B/msg). Persistent growth outside an upgrade window means
	// version skew worth investigating.
	UnknownIn atomic.Uint64
}

// WireSnapshot is a point-in-time copy of WireCounters.
type WireSnapshot struct {
	MsgsOut, BytesOut uint64
	MsgsIn, BytesIn   uint64
	V3Conns           uint64
	UnknownIn         uint64
}

// Snapshot copies the counters.
func (w *WireCounters) Snapshot() WireSnapshot {
	return WireSnapshot{
		MsgsOut: w.MsgsOut.Load(), BytesOut: w.BytesOut.Load(),
		MsgsIn: w.MsgsIn.Load(), BytesIn: w.BytesIn.Load(),
		V3Conns: w.V3Conns.Load(), UnknownIn: w.UnknownIn.Load(),
	}
}

// BytesPerMsgOut is the average encoded size of an outbound envelope (0 when
// nothing was sent).
func (s WireSnapshot) BytesPerMsgOut() float64 {
	if s.MsgsOut == 0 {
		return 0
	}
	return float64(s.BytesOut) / float64(s.MsgsOut)
}

// BytesPerMsgIn is the average encoded size of an inbound envelope.
func (s WireSnapshot) BytesPerMsgIn() float64 {
	if s.MsgsIn == 0 {
		return 0
	}
	return float64(s.BytesIn) / float64(s.MsgsIn)
}
