package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"ucc/internal/model"
	"ucc/internal/storage"
)

// chainAt builds a test version chain of depth versions for one copy.
func chainAt(site model.SiteID, item int, depth int) storage.CopyChain {
	cc := storage.CopyChain{ID: model.CopyID{Item: model.ItemID(item), Site: site}}
	for v := 0; v < depth; v++ {
		cc.Versions = append(cc.Versions, storage.Version{
			Value:        int64(item*100 + v),
			Version:      uint64(v),
			Writer:       model.TxnID{Site: site, Seq: uint64(v)},
			CommitMicros: int64(v) * 1_000,
		})
	}
	return cc
}

func rec(seq uint64, item int, value int64) Record {
	return Record{
		Seq:   seq, // assigned by Append; kept for expectations
		Item:  model.ItemID(item),
		Txn:   model.TxnID{Site: 1, Seq: seq},
		Value: value, Version: seq,
	}
}

func replayAll(t *testing.T, media Media, after uint64) []Record {
	t.Helper()
	var out []Record
	if _, err := Replay(media, after, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestLogAppendFlushReplay(t *testing.T) {
	media := NewMemMedia()
	l, err := NewLog(media, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		l.Append(rec(0, i, int64(100+i)))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, media, 0)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || r.Item != model.ItemID(i+1) || r.Value != int64(101+i) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	// afterSeq filters the snapshot-covered prefix.
	if got := replayAll(t, media, 7); len(got) != 3 || got[0].Seq != 8 {
		t.Fatalf("tail replay after 7: %+v", got)
	}
}

func TestLogUnflushedRecordsAreVolatile(t *testing.T) {
	media := NewMemMedia()
	l, _ := NewLog(media, 1<<20, 1)
	l.Append(rec(0, 1, 1))
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Append(rec(0, 2, 2)) // buffered, never flushed
	media.Crash()
	if got := replayAll(t, media, 0); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("after crash want exactly the flushed record, got %+v", got)
	}
}

func TestLogSegmentRollover(t *testing.T) {
	media := NewMemMedia()
	l, _ := NewLog(media, 30, 1) // tiny segments (~2 varint records each)
	for i := 1; i <= 9; i++ {
		l.Append(rec(0, i, int64(i)))
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := media.List()
	var segs int
	for _, n := range names {
		if isSeg(n) {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("expected multiple segments, got %d (%v)", segs, names)
	}
	if got := replayAll(t, media, 0); len(got) != 9 {
		t.Fatalf("replay across segments: %d records, want 9", len(got))
	}
}

// TestTornWriteRecoversPrefix is acceptance criterion (b): a file-backed log
// truncated mid-record replays exactly the checksummed prefix.
func TestTornWriteRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	media, err := NewDirMedia(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLog(media, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		l.Append(rec(0, i, int64(i)))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	seg := l.SegmentName()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop 13 bytes off the file (mid-payload).
	path := filepath.Join(dir, seg)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-13); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, media, 0)
	if len(got) != 19 {
		t.Fatalf("torn log replayed %d records, want exactly the 19 intact ones", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	media, _ := NewDirMedia(dir)
	l, _ := NewLog(media, 1<<20, 1)
	for i := 1; i <= 5; i++ {
		l.Append(rec(0, i, int64(i)))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	seg := l.SegmentName()
	l.Close()

	// Flip one byte in the middle of record 4's payload (frames are varint-
	// sized now, so walk the first three frames to find it).
	path := filepath.Join(dir, seg)
	data, _ := os.ReadFile(path)
	off := 0
	for i := 0; i < 3; i++ {
		n := int(binary.LittleEndian.Uint32(data[off+4:]) &^ varintFlag)
		off += frameHeader + n
	}
	off += frameHeader + 2
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Records 1..3 are the intact prefix; 4 is corrupt; 5 must NOT replay
	// (no replaying past damage).
	if got := replayAll(t, media, 0); len(got) != 3 {
		t.Fatalf("replayed %d records past corruption, want 3", len(got))
	}
}

func TestReplayStopsAtSequenceGap(t *testing.T) {
	media := NewMemMedia()
	l, _ := NewLog(media, 60, 1) // roll roughly every flush
	for i := 1; i <= 6; i++ {
		l.Append(rec(0, i, int64(i)))
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Drop a middle segment.
	names, _ := media.List()
	var segs []string
	for _, n := range names {
		if isSeg(n) {
			segs = append(segs, n)
		}
	}
	if len(segs) < 3 {
		t.Skipf("need ≥3 segments, got %v", segs)
	}
	if err := media.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, media, 0)
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("replay crossed the gap: %+v", got)
		}
	}
	if len(got) >= 6 {
		t.Fatalf("replayed %d records despite a missing segment", len(got))
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := snapshot{AppliedSeq: 42, Site: 3}
	for i := 0; i < 5; i++ {
		// Varying chain depth exercises the variable-length encoding.
		s.Chains = append(s.Chains, chainAt(3, i, i+1))
	}
	got, err := decodeSnapshot(encodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.AppliedSeq != 42 || got.Site != 3 || len(got.Chains) != 5 {
		t.Fatalf("round trip: %+v", got)
	}
	for i, c := range got.Chains {
		if c.ID != s.Chains[i].ID || len(c.Versions) != len(s.Chains[i].Versions) {
			t.Fatalf("chain %d: got %+v want %+v", i, c, s.Chains[i])
		}
		for j, v := range c.Versions {
			if v != s.Chains[i].Versions[j] {
				t.Fatalf("chain %d version %d: got %+v want %+v", i, j, v, s.Chains[i].Versions[j])
			}
		}
	}
	// Corruption is detected.
	enc := encodeSnapshot(s)
	enc[len(enc)-1] ^= 1
	if _, err := decodeSnapshot(enc); err == nil {
		t.Fatal("corrupt snapshot decoded without error")
	}
}

// TestRecordFrameGolden pins the on-disk frame of one record byte for byte:
// crc32C(lenWord|payload) | varintFlag|15 | the seven varint fields. Media
// already on disk must keep replaying, so any change here is a format break.
func TestRecordFrameGolden(t *testing.T) {
	r := Record{Seq: 42, Item: 7, Txn: model.TxnID{Site: 2, Seq: 1001}, Value: -5, Version: 3, CommitMicros: 1_700_000_000_000_000}
	want, err := hex.DecodeString("541307bc" + "0f000080" + "2a" + "0e" + "04" + "e907" + "09" + "03" + "8080f28183898506")
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendRecordFrame(nil, r); !bytes.Equal(got, want) {
		t.Fatalf("frame bytes changed:\n got %x\nwant %x", got, want)
	}
	var back []Record
	if torn := DecodeRecordFrames(want, func(r Record) { back = append(back, r) }); torn != 0 || len(back) != 1 || back[0] != r {
		t.Fatalf("golden frame decoded to %+v (torn %d), want %+v", back, torn, r)
	}
}

// TestRecordRoundTripExtremes: varint payloads must round-trip the field
// extremes (negative values, max versions) and reject truncation at every
// byte.
func TestRecordRoundTripExtremes(t *testing.T) {
	recs := []Record{
		{},
		{Seq: 1<<64 - 1, Item: -1, Txn: model.TxnID{Site: -1, Seq: 1<<64 - 1}, Value: -1 << 62, Version: 1<<64 - 1, CommitMicros: -1},
		{Seq: 7, Item: 1<<31 - 1, Txn: model.TxnID{Site: 1<<31 - 1, Seq: 9}, Value: 1<<62 - 1, Version: 3, CommitMicros: 1 << 50},
	}
	for i, r := range recs {
		p := appendRecordPayload(nil, r)
		if len(p) > maxRecordPayload {
			t.Fatalf("record %d payload is %d bytes, over maxRecordPayload", i, len(p))
		}
		got, ok := decodeRecordPayload(p)
		if !ok || got != r {
			t.Fatalf("record %d: round trip got %+v ok=%v, want %+v", i, got, ok, r)
		}
		for cut := 0; cut < len(p); cut++ {
			if _, ok := decodeRecordPayload(p[:cut]); ok {
				t.Fatalf("record %d: truncated payload (%d/%d bytes) decoded", i, cut, len(p))
			}
		}
		if _, ok := decodeRecordPayload(append(append([]byte{}, p...), 0)); ok {
			t.Fatalf("record %d: trailing byte accepted", i)
		}
	}
}

// TestFlippedEraFlagStopsReplay: the marker bit in the length word is
// required. A frame without it ends replay like a checksum failure — both
// when the flip leaves the crc stale and when the crc was recomputed over
// the unmarked length word — and the intact frames before it survive.
func TestFlippedEraFlagStopsReplay(t *testing.T) {
	r1 := Record{Seq: 1, Item: 1, Txn: model.TxnID{Site: 1, Seq: 1}, Value: 7}
	r2 := Record{Seq: 2, Item: 1, Txn: model.TxnID{Site: 1, Seq: 2}, Value: 8}
	unmark := func(frame []byte, fixCRC bool) []byte {
		out := append([]byte{}, frame...)
		out[7] ^= 0x80 // bit 31 of the little-endian length word
		if fixCRC {
			binary.LittleEndian.PutUint32(out, crc32.Checksum(out[4:], crcTable))
		}
		return out
	}
	for _, fixCRC := range []bool{false, true} {
		media := NewMemMedia()
		w, err := media.Create(segName(1))
		if err != nil {
			t.Fatal(err)
		}
		w.Write(append(appendRecord(nil, r1), unmark(appendRecord(nil, r2), fixCRC)...))
		w.Sync()
		w.Close()
		if got := replayAll(t, media, 0); len(got) != 1 || got[0] != r1 {
			t.Fatalf("fixCRC=%v: replayed %+v, want only the marked record", fixCRC, got)
		}
	}
}
