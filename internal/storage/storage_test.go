package storage

import (
	"testing"

	"ucc/internal/model"
)

func TestStoreReadWrite(t *testing.T) {
	s := NewStore(3)
	s.Create(7, 100)
	v, ver := s.Read(7)
	if v != 100 || ver != 0 {
		t.Fatalf("initial read: %d v%d", v, ver)
	}
	writer := model.TxnID{Site: 1, Seq: 9}
	if got := s.Write(7, writer, 250, 1_000); got != 1 {
		t.Fatalf("version after write = %d", got)
	}
	v, ver = s.Read(7)
	if v != 250 || ver != 1 {
		t.Fatalf("read after write: %d v%d", v, ver)
	}
}

func TestReadAtSelectsByCommitStamp(t *testing.T) {
	s := NewStore(0)
	s.Create(1, 10)
	s.Write(1, model.TxnID{Site: 0, Seq: 1}, 20, 1_000)
	s.Write(1, model.TxnID{Site: 0, Seq: 2}, 30, 2_000)

	cases := []struct {
		at    int64
		value int64
		ver   uint64
	}{
		{0, 10, 0},     // before any commit: the initial version
		{999, 10, 0},   // still before the first commit
		{1_000, 20, 1}, // inclusive boundary
		{1_500, 20, 1}, // between commits
		{2_000, 30, 2}, // newest
		{9_999, 30, 2}, // far future: newest
	}
	for _, c := range cases {
		v, exact := s.ReadAt(1, c.at)
		if !exact || v.Value != c.value || v.Version != c.ver {
			t.Fatalf("ReadAt(%d) = %+v exact=%v, want value=%d v%d exact",
				c.at, v, exact, c.value, c.ver)
		}
	}
}

// TestChainWatermarkGC: a version may be pruned only once a newer version is
// KeepMicros old, and the newest version at or below the watermark survives
// as the chain base.
func TestChainWatermarkGC(t *testing.T) {
	s := NewStore(0)
	s.SetChainPolicy(ChainPolicy{MaxVersions: 100, KeepMicros: 10_000})
	s.Create(1, 0)
	txn := model.TxnID{Site: 0, Seq: 1}

	// Commits at 1ms..5ms: all within 10ms of each other — nothing prunable.
	for i := int64(1); i <= 5; i++ {
		s.Write(1, txn, i, i*1_000)
	}
	if got := s.ChainLen(1); got != 6 {
		t.Fatalf("chain len = %d, want 6 (initial + 5 writes)", got)
	}

	// A write at t=14ms sets the watermark to 4ms: versions with commit
	// stamps 0, 1ms, 2ms, 3ms are covered by the 4ms version, which becomes
	// the base. Chain: base(4ms), 5ms, 14ms.
	s.Write(1, txn, 6, 14_000)
	if got := s.ChainLen(1); got != 3 {
		t.Fatalf("chain len after watermark GC = %d, want 3", got)
	}
	if v, exact := s.ReadAt(1, 4_500); !exact || v.Value != 4 {
		t.Fatalf("ReadAt(4500) = %+v exact=%v, want the 4ms base version", v, exact)
	}
	if s.Pruned() != 4 {
		t.Fatalf("pruned = %d, want 4", s.Pruned())
	}

	// A read older than the retained base is inexact and served the base.
	s.Write(1, txn, 7, 30_000) // watermark 20ms: base becomes the 14ms version
	if v, exact := s.ReadAt(1, 2_000); exact || v.Value != 6 {
		t.Fatalf("pre-base ReadAt = %+v exact=%v, want inexact base value 6", v, exact)
	}
}

// TestChainHardCap: MaxVersions bounds the chain even when every version is
// inside the staleness window.
func TestChainHardCap(t *testing.T) {
	s := NewStore(0)
	s.SetChainPolicy(ChainPolicy{MaxVersions: 4, KeepMicros: 1_000_000})
	s.Create(1, 0)
	txn := model.TxnID{Site: 0, Seq: 1}
	for i := int64(1); i <= 10; i++ {
		s.Write(1, txn, i, i*100)
	}
	if got := s.ChainLen(1); got != 4 {
		t.Fatalf("chain len = %d, want hard cap 4", got)
	}
	// The newest 4 versions survive; older snapshots are served inexactly.
	if v, exact := s.ReadAt(1, 100); exact || v.Value != 7 {
		t.Fatalf("capped ReadAt = %+v exact=%v, want inexact oldest (value 7)", v, exact)
	}
	if v, exact := s.ReadAt(1, 950); !exact || v.Value != 9 {
		t.Fatalf("in-cap ReadAt = %+v exact=%v, want value 9", v, exact)
	}
}

// TestChainSurvivesRestoreAndApply: RestoreChain + Apply (the recovery path)
// rebuild a chain that still answers snapshot reads.
func TestChainSurvivesRestoreAndApply(t *testing.T) {
	s := NewStore(2)
	s.Create(5, 100)
	txn := model.TxnID{Site: 1, Seq: 3}
	s.Write(5, txn, 200, 1_000)
	s.Write(5, txn, 300, 2_000)
	chains := s.Chains()

	r := NewStore(2)
	r.Create(5, 0)
	r.Wipe()
	for _, cc := range chains {
		r.RestoreChain(cc)
	}
	r.Apply(5, txn, 400, 3, 3_000) // replayed log tail

	if v, exact := r.ReadAt(5, 1_500); !exact || v.Value != 200 {
		t.Fatalf("recovered ReadAt(1500) = %+v exact=%v, want 200", v, exact)
	}
	if v, ver := r.Read(5); v != 400 || ver != 3 {
		t.Fatalf("recovered latest = %d v%d, want 400 v3", v, ver)
	}
}

func TestStoreDuplicateCreatePanics(t *testing.T) {
	s := NewStore(0)
	s.Create(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Create must panic")
		}
	}()
	s.Create(1, 0)
}

func TestStoreMissingItemPanics(t *testing.T) {
	s := NewStore(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Read of absent item must panic")
		}
	}()
	s.Read(42)
}

func TestStoreItemsSorted(t *testing.T) {
	s := NewStore(0)
	for _, it := range []model.ItemID{5, 1, 3} {
		s.Create(it, 0)
	}
	items := s.Items()
	if len(items) != 3 || items[0] != 1 || items[1] != 3 || items[2] != 5 {
		t.Fatalf("items = %v", items)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if !s.Has(3) || s.Has(4) {
		t.Fatal("Has wrong")
	}
}
