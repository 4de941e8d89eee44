package model

import (
	"bytes"
	"errors"
	"testing"
)

// TestWireReaderPrimitives: the error-latching reader must reject exactly
// the malformed shapes (truncation, overlong varints, non-canonical bools,
// bomb-sized counts) and latch the first failure.
func TestWireReaderPrimitives(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 300)
	b = AppendVarint(b, -7)
	b = AppendWireBool(b, true)
	b = AppendWireF64(b, 3.5)
	b = AppendWireString(b, "class-A")
	r := NewWireReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("uvarint: %d", v)
	}
	if v := r.Varint(); v != -7 {
		t.Fatalf("varint: %d", v)
	}
	if !r.Bool() {
		t.Fatal("bool lost")
	}
	if v := r.F64(); v != 3.5 {
		t.Fatalf("f64: %v", v)
	}
	if s := r.String(); s != "class-A" {
		t.Fatalf("string: %q", s)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("clean decode errored: %v, %d left", r.Err(), r.Remaining())
	}

	// Truncation latches and sticks.
	r2 := NewWireReader(nil)
	if r2.Uvarint() != 0 || !errors.Is(r2.Err(), ErrWireTruncated) {
		t.Fatalf("empty read: %v", r2.Err())
	}
	r2.Byte() // further reads must not clear the latched error
	if !errors.Is(r2.Err(), ErrWireTruncated) {
		t.Fatalf("latched error lost: %v", r2.Err())
	}

	// A bool byte other than 0/1 is corrupt (canonical encoding).
	r3 := NewWireReader([]byte{2})
	r3.Bool()
	if !errors.Is(r3.Err(), ErrWireCorrupt) {
		t.Fatalf("bool 2 accepted: %v", r3.Err())
	}

	// A 64-bit-overflowing varint is corrupt, not a hang or a panic.
	r4 := NewWireReader(bytes.Repeat([]byte{0xff}, 11))
	r4.Uvarint()
	if !errors.Is(r4.Err(), ErrWireCorrupt) {
		t.Fatalf("overflowing varint accepted: %v", r4.Err())
	}

	// An overlong (non-canonical) varint is corrupt too: 0x80 0x00 encodes
	// zero in two bytes where one is canonical. Accepting it would make
	// decode non-injective (two byte strings, one message).
	r4b := NewWireReader([]byte{0x80, 0x00})
	if v := r4b.Uvarint(); v != 0 || !errors.Is(r4b.Err(), ErrWireCorrupt) {
		t.Fatalf("overlong uvarint accepted: v=%d err=%v", v, r4b.Err())
	}
	r4c := NewWireReader([]byte{0x81, 0x80, 0x00})
	if r4c.Varint(); !errors.Is(r4c.Err(), ErrWireCorrupt) {
		t.Fatalf("overlong varint accepted: %v", r4c.Err())
	}

	// A count larger than the remaining bytes could back errors immediately
	// (the decompression-bomb guard).
	r5 := NewWireReader(AppendUvarint(nil, 1<<40))
	r5.Count(1)
	if !errors.Is(r5.Err(), ErrWireCorrupt) {
		t.Fatalf("bomb count accepted: %v", r5.Err())
	}
}

// TestMessageTagsStable pins every tag value: renumbering a tag is a wire-
// contract break that must fail a test, not slip through review.
func TestMessageTagsStable(t *testing.T) {
	want := map[WireTag]Message{
		1:  RequestMsg{},
		2:  FinalTSMsg{},
		3:  ReleaseMsg{},
		4:  AbortMsg{},
		5:  GrantMsg{},
		6:  NormalGrantMsg{},
		7:  RejectMsg{},
		8:  BackoffMsg{},
		9:  BusyMsg{},
		10: VictimMsg{},
		11: SnapReadMsg{},
		12: SnapReadReplyMsg{},
		13: WFGReportMsg{},
		14: ProbeWFGMsg{},
		15: SubmitTxnMsg{},
		16: TxnDoneMsg{},
		17: QueueStatsMsg{},
		18: EstimateMsg{},
		19: TickMsg{},
		20: ComputeDoneMsg{},
		21: RestartMsg{},
		22: TxnFinishedMsg{},
		23: StopMsg{},
		24: CrashMsg{},
		25: RecoverMsg{},
		26: FlushMsg{},
		27: ReplPullMsg{},
		28: ReplRecordsMsg{},
		29: WrongEpochMsg{},
		30: MapInstallMsg{},
		31: MapUpdateMsg{},
		32: TransferPullMsg{},
		33: TransferRecordsMsg{},
	}
	for tag, msg := range want {
		got, ok := MessageTag(msg)
		if !ok || got != tag {
			t.Errorf("%T: tag %d (ok=%v), want %d", msg, got, ok, tag)
		}
	}
	if _, ok := MessageTag(nil); ok {
		t.Error("nil message must have no tag")
	}
}

// TestDecodeRejectsOutOfRangeEnums: every one-byte enum field of every
// message type rejects a value outside its enum at decode, so a hostile or
// corrupt peer cannot hand a queue manager a protocol it has no case for or
// index a per-protocol array out of range. Each row encodes the message
// twice with the field at two adjacent valid values; the one differing byte
// is the field, which is then overwritten with each bad value.
func TestDecodeRejectsOutOfRangeEnums(t *testing.T) {
	txn := TxnID{Site: 1, Seq: 7}
	c := CopyID{Item: 3, Site: 2}
	submit := func(p Protocol) Message {
		return SubmitTxnMsg{Txn: NewTxn(txn, p, []ItemID{1}, []ItemID{2}, 100)}
	}
	rows := []struct {
		name   string
		lo, hi Message
		bad    []byte
	}{
		{"RequestMsg.Protocol",
			RequestMsg{Txn: txn, Copy: c, Protocol: TwoPL}, RequestMsg{Txn: txn, Copy: c, Protocol: TO},
			[]byte{byte(ROSnapshot), 9, 255}},
		{"RequestMsg.Kind",
			RequestMsg{Txn: txn, Copy: c, Kind: OpRead}, RequestMsg{Txn: txn, Copy: c, Kind: OpWrite},
			[]byte{2, 255}},
		{"GrantMsg.Lock",
			GrantMsg{Txn: txn, Copy: c, Lock: RL}, GrantMsg{Txn: txn, Copy: c, Lock: WL},
			[]byte{4, 255}},
		{"SubmitTxnMsg.Txn.Protocol", submit(TwoPL), submit(TO), []byte{NumProtocols, 9, 255}},
		{"TxnDoneMsg.Protocol",
			TxnDoneMsg{Txn: txn, Protocol: TwoPL}, TxnDoneMsg{Txn: txn, Protocol: TO},
			[]byte{NumProtocols, 9, 255}},
		{"TxnDoneMsg.Outcome",
			TxnDoneMsg{Txn: txn, Outcome: OutcomeCommitted}, TxnDoneMsg{Txn: txn, Outcome: OutcomeRejected},
			[]byte{byte(OutcomeBusy) + 1, 255}},
		{"TxnDoneMsg.RejectKind",
			TxnDoneMsg{Txn: txn, RejectKind: OpRead}, TxnDoneMsg{Txn: txn, RejectKind: OpWrite},
			[]byte{2, 255}},
	}
	for _, row := range rows {
		lo, err := AppendMessage(nil, row.lo)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := AppendMessage(nil, row.hi)
		if err != nil {
			t.Fatal(err)
		}
		at := -1
		for i := range lo {
			if lo[i] != hi[i] {
				if at >= 0 || len(lo) != len(hi) {
					t.Fatalf("%s: encodings differ in more than the enum byte", row.name)
				}
				at = i
			}
		}
		if at < 0 {
			t.Fatalf("%s: encodings identical", row.name)
		}
		for _, v := range []byte{lo[at], hi[at]} {
			in := bytes.Clone(lo)
			in[at] = v
			r := NewWireReader(in[1:])
			if _, err := DecodeMessage(WireTag(in[0]), &r); err != nil {
				t.Fatalf("%s: valid value %d rejected: %v", row.name, v, err)
			}
		}
		for _, v := range row.bad {
			in := bytes.Clone(lo)
			in[at] = v
			r := NewWireReader(in[1:])
			m, err := DecodeMessage(WireTag(in[0]), &r)
			if !errors.Is(err, ErrWireCorrupt) {
				t.Errorf("%s = %d: decoded %+v, err %v; want ErrWireCorrupt", row.name, v, m, err)
			}
		}
	}
}
