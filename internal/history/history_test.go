package history

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ucc/internal/model"
)

func cid(item int) model.CopyID { return model.CopyID{Item: model.ItemID(item), Site: 0} }
func tid(seq int) model.TxnID   { return model.TxnID{Site: 1, Seq: uint64(seq)} }

func TestCheckEmptyIsSerializable(t *testing.T) {
	r := NewRecorder()
	res := r.Check()
	if !res.Serializable || res.Txns != 0 {
		t.Fatalf("empty history: %+v", res)
	}
}

func TestCheckSerialExecution(t *testing.T) {
	r := NewRecorder()
	// t1 then t2, strictly serial on two items.
	r.Implemented(cid(1), tid(1), model.OpWrite)
	r.Implemented(cid(2), tid(1), model.OpWrite)
	r.Implemented(cid(1), tid(2), model.OpRead)
	r.Implemented(cid(2), tid(2), model.OpWrite)
	r.Committed(tid(1), model.TwoPL, model.NoTimestamp)
	r.Committed(tid(2), model.TO, 2)
	res := r.Check()
	if !res.Serializable {
		t.Fatalf("serial execution flagged non-serializable: cycle=%v", res.Cycle)
	}
	if len(res.Order) != 2 || res.Order[0] != tid(1) || res.Order[1] != tid(2) {
		t.Fatalf("wrong witness order: %v", res.Order)
	}
	// Both items induce the same t1→t2 dependency; distinct edges = 1.
	if res.Edges != 1 {
		t.Fatalf("edges=%d want 1", res.Edges)
	}
}

func TestCheckDetectsCycle(t *testing.T) {
	r := NewRecorder()
	// Classic non-serializable interleaving: t1 writes x before t2 reads it,
	// t2 writes y before t1 reads it.
	r.Implemented(cid(1), tid(1), model.OpWrite)
	r.Implemented(cid(1), tid(2), model.OpRead)
	r.Implemented(cid(2), tid(2), model.OpWrite)
	r.Implemented(cid(2), tid(1), model.OpRead)
	r.Committed(tid(1), model.TwoPL, model.NoTimestamp)
	r.Committed(tid(2), model.TwoPL, model.NoTimestamp)
	res := r.Check()
	if res.Serializable {
		t.Fatal("cycle not detected")
	}
	if len(res.Cycle) < 2 {
		t.Fatalf("cycle witness too short: %v", res.Cycle)
	}
}

func TestCheckIgnoresUncommitted(t *testing.T) {
	r := NewRecorder()
	r.Implemented(cid(1), tid(1), model.OpWrite)
	r.Implemented(cid(1), tid(2), model.OpWrite)
	r.Implemented(cid(2), tid(2), model.OpWrite)
	r.Implemented(cid(2), tid(1), model.OpWrite)
	// Only t1 committed: the apparent cycle involves an aborted txn and
	// must be ignored.
	r.Committed(tid(1), model.TwoPL, model.NoTimestamp)
	res := r.Check()
	if !res.Serializable {
		t.Fatal("uncommitted transaction affected the check")
	}
	if res.Txns != 1 {
		t.Fatalf("txns=%d want 1", res.Txns)
	}
}

func TestCheckReadsDontConflict(t *testing.T) {
	r := NewRecorder()
	r.Implemented(cid(1), tid(1), model.OpRead)
	r.Implemented(cid(1), tid(2), model.OpRead)
	r.Implemented(cid(2), tid(2), model.OpRead)
	r.Implemented(cid(2), tid(1), model.OpRead)
	r.Committed(tid(1), model.TO, 1)
	r.Committed(tid(2), model.TO, 2)
	res := r.Check()
	if !res.Serializable || res.Edges != 0 {
		t.Fatalf("read-only ops created conflicts: %+v", res)
	}
}

func TestCheckThreeCycle(t *testing.T) {
	// The paper's §4.2 example: r1(x) w3(x), r2(y) w1(y), r3(z) w2(z) gives
	// t1→t3, t2→t1, t3→t2 — a 3-cycle. This is the execution the unified
	// enforcement must prevent; the checker must flag it.
	r := NewRecorder()
	r.Implemented(cid(1), tid(1), model.OpRead)  // r1(x)
	r.Implemented(cid(1), tid(3), model.OpWrite) // w3(x)
	r.Implemented(cid(2), tid(2), model.OpRead)  // r2(y)
	r.Implemented(cid(2), tid(1), model.OpWrite) // w1(y)
	r.Implemented(cid(3), tid(3), model.OpRead)  // r3(z)
	r.Implemented(cid(3), tid(2), model.OpWrite) // w2(z)
	for i := 1; i <= 3; i++ {
		r.Committed(tid(i), model.TO, model.Timestamp(i))
	}
	res := r.Check()
	if res.Serializable {
		t.Fatal("the paper's §4.2 counterexample must be non-serializable")
	}
	if len(res.Cycle) != 3 {
		t.Fatalf("want 3-cycle, got %v", res.Cycle)
	}
}

// Property: executions generated by a serial schedule are always
// serializable, whatever the op mix.
func TestCheckSerialAlwaysSerializable(t *testing.T) {
	f := func(seed int64, nTxn, nItem, opsPer uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		T := int(nTxn%8) + 1
		I := int(nItem%6) + 1
		O := int(opsPer%5) + 1
		r := NewRecorder()
		for x := 1; x <= T; x++ {
			for o := 0; o < O; o++ {
				kind := model.OpRead
				if rng.Intn(2) == 0 {
					kind = model.OpWrite
				}
				r.Implemented(cid(rng.Intn(I)), tid(x), kind)
			}
			r.Committed(tid(x), model.TwoPL, model.NoTimestamp)
		}
		return r.Check().Serializable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyTimestampOrder(t *testing.T) {
	r := NewRecorder()
	r.Implemented(cid(1), tid(1), model.OpWrite)
	r.Implemented(cid(1), tid(2), model.OpWrite)
	r.Committed(tid(1), model.TO, 5)
	r.Committed(tid(2), model.TO, 9)
	if err := r.VerifyTimestampOrder(model.TO); err != nil {
		t.Fatalf("in-order log flagged: %v", err)
	}
	r.Committed(tid(2), model.TO, 3) // now out of order
	if err := r.VerifyTimestampOrder(model.TO); err == nil {
		t.Fatal("out-of-order log not flagged")
	}
	// Only the named protocol's transactions are compared.
	if err := r.VerifyTimestampOrder(model.PA); err != nil {
		t.Fatalf("T/O pair checked under PA: %v", err)
	}
}

func TestLogAndCopies(t *testing.T) {
	r := NewRecorder()
	r.Implemented(cid(2), tid(1), model.OpWrite)
	r.Implemented(cid(1), tid(1), model.OpRead)
	r.Implemented(cid(2), tid(2), model.OpRead)
	copies := r.Copies()
	if len(copies) != 2 || copies[0].Item != 1 || copies[1].Item != 2 {
		t.Fatalf("copies=%v", copies)
	}
	log := r.Log(cid(2))
	if len(log) != 2 || log[0].Txn != tid(1) || log[1].Txn != tid(2) {
		t.Fatalf("log=%v", log)
	}
	if log[0].Seq >= log[1].Seq {
		t.Fatal("sequence numbers not monotone")
	}
}
