package main

import (
	"fmt"
	"math/rand"
	"sort"

	"ucc/internal/model"
)

// Cluster shape shared by every workload: the production defaults of
// cmd/uccnode (see newCluster for the rest).
const (
	numSites     = 3
	numItems     = 4096
	initialValue = 100
	txnSize      = 4
	writeProb    = 0.4
)

// workload is one traffic mix the benchmark can drive.
type workload struct {
	name string
	// durable gives every site a file-backed WAL (sync-before-expose).
	durable bool
	// closedPerSite > 0 selects a closed loop with this many transactions
	// in flight per site; 0 selects the open loop at ratePerSite.
	closedPerSite int
	ratePerSite   float64
	// roFrac is the share of read-only snapshot transactions; the rest are
	// read-write, split evenly over 2PL, T/O and PA.
	roFrac float64
	// hotItems/hotFrac skew accesses: each access lands on one of the
	// first hotItems items with probability hotFrac.
	hotItems int
	hotFrac  float64
	// computeMicros is the local computing phase of every transaction.
	computeMicros int64
	// heapCommits is the committed count (from load start) at which the
	// heap-peak measurement stops, so that memory growing with the number
	// of commits does not count against a faster build.
	heapCommits int64
}

// workloads are the traffic mixes the benchmark can drive. BENCHMARK.json
// gates uniform-rw and hot-durable; read-mostly-open runs by hand only (its
// latency moves too much between identical runs on a shared 2-vCPU host to
// gate on, see README.md).
var workloads = []workload{
	{
		// CPU-bound, rare conflicts: per-message cost in engine, transport,
		// ri, qm and metrics sets throughput.
		name:          "uniform-rw",
		closedPerSite: 64,
		computeMicros: 1,
		heapCommits:   150_000,
	},
	{
		// A sync per write and 64 hot items: qm queue waits, lock hold
		// stretched by syncs, restarts and deadlock detection.
		name:          "hot-durable",
		durable:       true,
		closedPerSite: 16,
		hotItems:      64,
		hotFrac:       0.8,
		computeMicros: 1,
		heapCommits:   60_000,
	},
	{
		// Open loop well below capacity, 90% RO snapshot reads: latency is
		// the sum of hop delays.
		name:          "read-mostly-open",
		ratePerSite:   3000,
		roFrac:        0.9,
		computeMicros: 1000,
		heapCommits:   100_000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// txnSource draws one site's transactions from the seed. It is used by one
// goroutine at a time (callers hold the site's lock).
type txnSource struct {
	w    workload
	site model.SiteID
	rng  *rand.Rand
	seq  uint64
	pick map[model.ItemID]bool // scratch: items already chosen
}

func newTxnSource(w workload, seed int64, site model.SiteID) *txnSource {
	return &txnSource{
		w:    w,
		site: site,
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(site)*7919 + 17)),
		pick: map[model.ItemID]bool{},
	}
}

// next returns the site's next transaction. Every write installs
// pre-image+1 (model.Txn's default write spec), which is what the
// lost-update check counts on.
func (g *txnSource) next() *model.Txn {
	g.seq++
	id := model.TxnID{Site: g.site, Seq: g.seq}
	clear(g.pick)
	items := make([]model.ItemID, 0, txnSize)
	for len(items) < txnSize {
		it := g.item()
		if g.pick[it] {
			continue
		}
		g.pick[it] = true
		items = append(items, it)
	}
	if g.rng.Float64() < g.w.roFrac {
		sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
		return &model.Txn{ID: id, Protocol: model.ROSnapshot, ReadSet: items, ComputeMicros: g.w.computeMicros}
	}
	var reads, writes []model.ItemID
	for _, it := range items {
		if g.rng.Float64() < writeProb {
			writes = append(writes, it)
		} else {
			reads = append(reads, it)
		}
	}
	proto := model.Protocols[g.rng.Intn(len(model.Protocols))]
	return model.NewTxn(id, proto, reads, writes, g.w.computeMicros)
}

func (g *txnSource) item() model.ItemID {
	if g.w.hotItems > 0 {
		if g.rng.Float64() < g.w.hotFrac {
			return model.ItemID(g.rng.Intn(g.w.hotItems))
		}
		return model.ItemID(g.w.hotItems + g.rng.Intn(numItems-g.w.hotItems))
	}
	return model.ItemID(g.rng.Intn(numItems))
}

// gap returns the next exponential inter-arrival gap in nanoseconds for the
// open loop (Poisson arrivals at ratePerSite).
func (g *txnSource) gap() int64 {
	return int64(g.rng.ExpFloat64() / g.w.ratePerSite * 1e9)
}
