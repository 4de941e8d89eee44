package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// countActor counts deliveries and signals when a target is reached.
type countActor struct {
	n      atomic.Int64
	target int64
	done   chan struct{}
}

func (a *countActor) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	if a.n.Add(1) == a.target {
		close(a.done)
	}
}

// BenchmarkTransportThroughput is the end-to-end wire cost: request-sized
// envelopes pushed through two real nodes over loopback TCP, encode → frame
// → kernel → decode → inject — the cost the in-process shard harness
// (BenchmarkReadWriteThroughput) never crosses the wire to show.
// Wall-clock and loopback-bound, so the numbers are host-local (not in
// BENCH_baseline.json); the codec's allocs/msg and msgs/KB are gated by
// BenchmarkWireCodec instead.
func BenchmarkTransportThroughput(b *testing.B) {
	rtA := engine.NewRuntime(engine.FixedLatency{}, 1)
	rtB := engine.NewRuntime(engine.FixedLatency{}, 2)
	defer rtA.Shutdown()
	defer rtB.Shutdown()
	nodeB, err := NewNode(rtB, "site1", "127.0.0.1:0", Topology{Peers: map[string]string{}, Assign: siteAssign})
	if err != nil {
		b.Fatal(err)
	}
	defer nodeB.Close()
	nodeA, err := NewNode(rtA, "site0", "", Topology{Peers: map[string]string{"site1": nodeB.Addr()}, Assign: siteAssign})
	if err != nil {
		b.Fatal(err)
	}
	defer nodeA.Close()

	recv := &countActor{target: int64(b.N), done: make(chan struct{})}
	rtB.Register(engine.QMAddr(1), recv)
	env := engine.Envelope{
		From: engine.RIAddr(0), To: engine.QMAddr(1),
		Msg: model.RequestMsg{Txn: model.TxnID{Site: 0, Seq: 1}, Protocol: model.PA, Kind: model.OpWrite,
			Copy: model.CopyID{Item: 7, Site: 1}, TS: 123456, Interval: 250},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodeA.forward(env)
	}
	select {
	case <-recv.done:
	case <-time.After(60 * time.Second):
		b.Fatalf("delivered %d/%d", recv.n.Load(), b.N)
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	}
	if ws := nodeA.Wire().Snapshot(); ws.BytesOut > 0 {
		b.ReportMetric(ws.BytesPerMsgOut(), "B/msg")
	}
}
