// BENCH_wire.json generation: the wire-v3 codec's absolute costs as a
// machine-readable artifact, refreshed by the bench-gate CI job on every PR
// so codec numbers from real runners accumulate next to the code (the same
// contract as BENCH_shards.json for shard scaling).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"ucc/internal/wire"
)

type wireReport struct {
	Recorded string     `json:"recorded"`
	Command  string     `json:"command"`
	Host     shardsHost `json:"host"`
	// Report is the measurement: msgs/sec, ns/msg, allocs/msg, bytes/msg
	// over the mixed-message corpus, for plain and pooled decoding.
	Report wire.CodecReport `json:"report"`
	Note   string           `json:"note"`
}

// writeWireJSON verifies the codec round-trips its corpus, measures it, and
// writes the artifact.
func writeWireJSON(path string) error {
	if err := wire.Verify(); err != nil {
		return fmt.Errorf("codec self-check: %w", err)
	}
	rep, err := wire.Measure(300)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(wireReport{
		Recorded: time.Now().UTC().Format("2006-01-02"),
		Command:  fmt.Sprintf("go run ./cmd/uccbench -wire-json %s", path),
		Host: shardsHost{
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(),
		},
		Report: rep,
		Note: "full encode→decode round trip per envelope over the mixed-message corpus " +
			"(internal/wire Corpus), plain and pooled decoding. msgs/sec and ns/msg are host-bound; " +
			"allocs/msg and bytes/msg are properties of the code, and BenchmarkWireCodec's " +
			"allocs/msg and msgs/KB are gated lower/higher-is-better in BENCH_baseline.json.",
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
