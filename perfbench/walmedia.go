package main

import (
	"sync"
	"sync/atomic"
	"time"

	"ucc/internal/wal"
)

// timedMedia wraps a WAL medium to count the bytes written through it and
// time every Sync — the WAL layer's device work, seen from outside.
type timedMedia struct {
	wal.Media

	bytes atomic.Uint64
	syncs atomic.Uint64

	mu      sync.Mutex
	syncDur []int64 // ns per Sync
}

// Create implements wal.Media.
func (m *timedMedia) Create(name string) (wal.Writer, error) {
	w, err := m.Media.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedWriter{Writer: w, m: m}, nil
}

// takeSyncs returns the Sync durations recorded since the last call.
func (m *timedMedia) takeSyncs() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.syncDur
	m.syncDur = nil
	return out
}

type timedWriter struct {
	wal.Writer
	m *timedMedia
}

func (w *timedWriter) Write(p []byte) (int, error) {
	n, err := w.Writer.Write(p)
	w.m.bytes.Add(uint64(n))
	return n, err
}

func (w *timedWriter) Sync() error {
	t0 := time.Now()
	err := w.Writer.Sync()
	d := int64(time.Since(t0))
	w.m.syncs.Add(1)
	w.m.mu.Lock()
	w.m.syncDur = append(w.m.syncDur, d)
	w.m.mu.Unlock()
	return err
}
