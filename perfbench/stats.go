package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the exact q-quantile of vs by the nearest-rank rule
// (sorting vs in place); 0 when vs is empty.
func quantile(vs []int64, q float64) int64 {
	if len(vs) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(vs, func(i, j int) bool { return vs[i] < vs[j] }) {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}
	rank := int(math.Ceil(q*float64(len(vs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return vs[rank]
}

func medianDuration(ds []time.Duration) time.Duration {
	vs := make([]int64, len(ds))
	for i, d := range ds {
		vs[i] = int64(d)
	}
	return time.Duration(quantile(vs, 0.5))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read at phase boundaries.
const (
	mAllocs   = "/gc/heap/allocs:objects"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mHeapObjs = "/memory/classes/heap/objects:bytes"
)

type goStats struct {
	allocs        uint64
	gcCPU, allCPU float64
}

func readGoStats() goStats {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return goStats{allocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

// heapSampler records the peak of live-plus-unswept heap object bytes from
// load start until the load reaches a fixed committed count (or stop). The
// fixed count keeps state that grows with every commit from counting
// against a build that commits faster.
type heapSampler struct {
	peak uint64
	done chan struct{}
}

func sampleHeap(l *load, stop <-chan struct{}) *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: mHeapObjs}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			if l.commits.Load() >= l.w.heapCommits {
				return
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB waits for the sampler to stop and returns its peak in MiB.
func (h *heapSampler) peakMB() float64 {
	<-h.done
	return float64(h.peak) / (1 << 20)
}
