package wire

import (
	"runtime"
	"testing"
)

// BenchmarkWireCodec measures a full encode→decode round trip per envelope
// over the mixed-message corpus — what the transport pays on the two ends of
// the wire — driving the same per-pass harness Measure uses. The
// hardware-robust custom metrics, both gated by the CI bench gate:
//
//	msgs/KB    — corpus envelopes per KiB of encoded stream (wire density;
//	             deterministic given the corpus)
//	allocs/msg — heap allocations per envelope round trip (Mallocs delta
//	             over the timed passes ÷ envelopes; a property of the code
//	             path, not the runner)
//
// msgs/s is wall-clock and host-bound, reported for context only.
func BenchmarkWireCodec(b *testing.B) {
	corpus := Corpus()
	h := NewV3Harness()
	defer h.Release()
	run := func(b *testing.B, pass func() (int, error)) {
		var streamBytes int
		var before, after runtime.MemStats
		b.ReportAllocs()
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := pass()
			if err != nil {
				b.Fatal(err)
			}
			streamBytes = n
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		msgs := float64(len(corpus) * b.N)
		if streamBytes > 0 {
			b.ReportMetric(float64(len(corpus))/(float64(streamBytes)/1024), "msgs/KB")
		}
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/msgs, "allocs/msg")
		if b.Elapsed() > 0 {
			b.ReportMetric(msgs/b.Elapsed().Seconds(), "msgs/s")
		}
	}

	b.Run("v3", func(b *testing.B) {
		run(b, func() (int, error) { return h.Pass(corpus) })
	})

	// v3-pooled adds the decode-side message struct pool: hot fixed-size
	// messages decode into pooled structs recycled right after the read, so
	// the interface boxing that is v3's last steady-state decode allocation
	// disappears. Compare allocs/msg against plain v3: the delta is the
	// share of pooled messages in the corpus.
	b.Run("v3-pooled", func(b *testing.B) {
		run(b, func() (int, error) { return h.PassPooled(corpus) })
	})
}
