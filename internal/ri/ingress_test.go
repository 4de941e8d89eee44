package ri

import (
	"fmt"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/qm"
	"ucc/internal/storage"
	"ucc/internal/wire"
)

// nopDurable lets a queue manager take CrashMsg/RecoverMsg for real.
type nopDurable struct{}

func (nopDurable) Flush() error   { return nil }
func (nopDurable) Crash()         {}
func (nopDurable) Recover() error { return nil }

// TestEveryWireMessageToEveryActorKind: a peer can send any valid wire
// message to any actor address. Each message type in the wire corpus goes
// to a live queue manager (volatile and durable) and a live issuer; none may
// panic, and the types an actor does not handle are counted and dropped.
func TestEveryWireMessageToEveryActorKind(t *testing.T) {
	const site, items = 2, 16
	sites := []model.SiteID{0, 1, 2}
	seen := map[model.WireTag]bool{}
	var corpus []model.Message
	for _, env := range wire.Corpus() {
		tag, _ := model.MessageTag(env.Msg)
		if !seen[tag] {
			seen[tag] = true
			corpus = append(corpus, env.Msg)
		}
	}
	if want := int(model.TagLast - model.TagRequest + 1); len(corpus) != want {
		t.Fatalf("corpus covers %d wire types, want %d", len(corpus), want)
	}
	// A flush timer naming a shard below range used to index the shard
	// table with a negative number.
	corpus = append(corpus, model.FlushMsg{Shard: -1})

	newQM := func(durable bool) *qm.Manager {
		st := storage.NewStore(site)
		for i := 0; i < items; i++ {
			st.Create(model.ItemID(i), 100)
		}
		m := qm.New(site, st, nil, qm.Options{})
		if durable {
			m.SetDurable(nopDurable{})
		}
		return m
	}
	volatile, durable := newQM(false), newQM(true)
	iss := New(1, placement.Build(placement.RoundRobin, items, sites, 1), nil, Options{
		PAIntervalMicros: 10, RestartDelayMicros: 100, DefaultComputeMicros: 50,
	}, nil)
	actors := []struct {
		name string
		a    engine.Actor
		ctx  *fakeCtx
	}{
		{"volatile qm", volatile, newCtx()},
		{"durable qm", durable, newCtx()},
		{"ri", iss, newCtx()},
	}
	for _, msg := range corpus {
		for _, ac := range actors {
			t.Run(fmt.Sprintf("%T to %s", msg, ac.name), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				ac.a.OnMessage(ac.ctx, engine.RIAddr(1), msg)
			})
		}
	}
	// A grant is an issuer's message and a request a queue manager's: each
	// reached the wrong kind at least once above and was counted.
	if n := volatile.Snapshot().Unexpected; n == 0 {
		t.Error("the volatile queue manager counted no unexpected messages")
	}
	if n := iss.Snapshot().Unexpected; n == 0 {
		t.Error("the issuer counted no unexpected messages")
	}
}
