package repl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ucc/internal/wal"
)

const seedDir = "testdata/fuzz/FuzzReplStream"

// seedStreams are the committed fuzz seeds: a clean multi-record batch, a
// batch with duplicate and overlapping ranges (the re-ship case), a
// mid-frame truncation, a corrupted checksum, and raw garbage. One seed per
// shape, so the first fuzz iteration already walks every decode branch.
func seedStreams() map[string][]byte {
	clean := frames(rec(1, 1, 10, 100), rec(2, 2, 20, 200), rec(3, 3, 30, 300))
	dup := frames(rec(1, 1, 10, 100), rec(1, 1, 10, 100), rec(2, 1, 11, 90), rec(3, 2, 20, 200), rec(2, 1, 11, 90))
	torn := append([]byte(nil), clean[:len(clean)-5]...)
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)-1] ^= 0xFF
	return map[string][]byte{
		"clean":    clean,
		"dup":      dup,
		"torn":     torn,
		"corrupt":  corrupt,
		"garbage":  {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02, 0x03},
		"empty":    {},
		"one-byte": {0x7F},
	}
}

// TestWriteSeedCorpus regenerates the committed seed corpus when
// REPL_WRITE_CORPUS=1 (same workflow as internal/wire's corpus):
//
//	REPL_WRITE_CORPUS=1 go test ./internal/repl -run TestWriteSeedCorpus
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("REPL_WRITE_CORPUS") == "" {
		t.Skip("set REPL_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	if err := os.MkdirAll(seedDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seedStreams() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(seedDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeedCorpusCommitted fails if the checked-in corpus is missing — the CI
// fuzz job depends on seeds existing.
func TestSeedCorpusCommitted(t *testing.T) {
	entries, err := os.ReadDir(seedDir)
	if err != nil {
		t.Fatalf("seed corpus missing (run REPL_WRITE_CORPUS=1 go test -run TestWriteSeedCorpus ./internal/repl): %v", err)
	}
	if want := len(seedStreams()); len(entries) < want {
		t.Fatalf("seed corpus has %d entries, want ≥ %d", len(entries), want)
	}
}

// FuzzReplStream hardens the shipped-batch decode→replay path against
// arbitrary bytes off the wire. For every input, whatever its shape:
//
//   - Apply must not panic and must account for every decoded record
//     (Applied + Skipped = decode count, Torn = trailing damage).
//   - Replaying the same bytes against the same replica must apply nothing —
//     duplicate and overlapping re-ships are absorbed by the stamp gate.
//   - Truncating the input at any point must only ever shorten the applied
//     prefix, never change or reorder what was applied before the cut.
func FuzzReplStream(f *testing.F) {
	for _, data := range seedStreams() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded int
		torn := wal.DecodeRecordFrames(data, func(wal.Record) { decoded++ })

		m := applyModel{}
		st := Apply(data, m.apply)
		if st.Applied+st.Skipped != decoded {
			t.Fatalf("stats %+v do not account for %d decoded records", st, decoded)
		}
		if st.Torn != torn {
			t.Fatalf("torn mismatch: Apply=%d decode=%d", st.Torn, torn)
		}

		// Idempotence: the identical batch re-shipped is all skips.
		again := Apply(data, m.apply)
		if again.Applied != 0 || again.Skipped != decoded {
			t.Fatalf("replay not idempotent: %+v (decoded %d)", again, decoded)
		}

		// Truncation at an arbitrary interior point (derived from the data
		// itself to stay deterministic): the prefix replayed into a fresh
		// replica must agree with the full replay on every item it reached.
		if len(data) > 0 {
			cut := int(data[0]) % (len(data) + 1)
			pm := applyModel{}
			var prefixOrder []wal.Record
			Apply(data[:cut], func(r wal.Record) bool {
				prefixOrder = append(prefixOrder, r)
				return pm.apply(r)
			})
			var fullOrder []wal.Record
			fm := applyModel{}
			Apply(data, func(r wal.Record) bool {
				fullOrder = append(fullOrder, r)
				return fm.apply(r)
			})
			if len(prefixOrder) > len(fullOrder) {
				t.Fatalf("truncation grew the stream: %d > %d", len(prefixOrder), len(fullOrder))
			}
			for i, r := range prefixOrder {
				if fullOrder[i] != r {
					t.Fatalf("record %d differs between prefix and full replay", i)
				}
			}
		}

		// Round-trip: re-encoding every decoded record reproduces the
		// intact prefix byte for byte.
		var reenc []byte
		wal.DecodeRecordFrames(data, func(r wal.Record) { reenc = append(reenc, wal.AppendRecordFrame(nil, r)...) })
		if !bytes.Equal(reenc, data[:len(data)-torn]) {
			t.Fatalf("re-encoding the %d decoded records does not reproduce the intact prefix:\n in: %x\nout: %x", decoded, data[:len(data)-torn], reenc)
		}
	})
}
