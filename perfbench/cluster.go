package main

import (
	"fmt"
	"os"
	"time"

	"ucc/internal/deadlock"
	"ucc/internal/engine"
	"ucc/internal/history"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/qm"
	"ucc/internal/ri"
	"ucc/internal/storage"
	"ucc/internal/transport"
	"ucc/internal/wal"
)

// Production defaults of cmd/uccnode, which this benchmark wires the same
// way through the same public constructors.
const (
	mailboxDepth     = 8192
	queueDepth       = 1024
	sendQueueCap     = 65536
	admissionWindow  = 128
	detectorPeriodUs = 50_000
	restartDelayUs   = 10_000
	paIntervalUs     = 2_000
	statsPeriodUs    = 200_000
	walSegmentBytes  = 1 << 20
	walSnapshotEvery = 10_000
	linkReadyTimeout = 10 * time.Second
	defaultComputeUs = 1000
	linksPerNode     = numSites - 1
	// walSyncDelay is the WAL device's sync latency, about the median
	// fsync of the 2-vCPU VM the benchmark was calibrated on (80 µs). A
	// fixed device keeps the host disk's own variance out of the figures.
	walSyncDelay = 100 * time.Microsecond
)

// clusterConfig selects the optional parts of a cluster.
type clusterConfig struct {
	// durable gives every site a write-ahead log on an in-memory device
	// whose every sync takes walSyncDelay.
	durable bool
	// recorder, when non-nil, records the execution history at every
	// queue manager and issuer.
	recorder *history.Recorder
	// tracer, when non-nil, wraps every registered actor.
	tracer *tracer
}

// site is one data/user site: the slice of the system one uccnode runs,
// plus a local metrics collector.
type site struct {
	id    model.SiteID
	rt    *engine.Runtime
	store *storage.Store
	log   *wal.SiteLog
	media *timedMedia
	mgr   *qm.Manager
	iss   *ri.Issuer
	det   *deadlock.Detector // site 0 only
	obs   *observer
	node  *transport.Node
}

// cluster is three sites of the real stack in one process, talking over
// 127.0.0.1 TCP.
type cluster struct {
	cfg   clusterConfig
	pmap  *model.PartitionMap
	sites []*site
}

// newCluster builds the sites and returns once every site has a live
// outbound TCP link to every other site.
func newCluster(cfg clusterConfig) (*cluster, error) {
	ids := make([]model.SiteID, numSites)
	for i := range ids {
		ids[i] = model.SiteID(i)
	}
	c := &cluster{cfg: cfg, pmap: placement.Build(placement.RoundRobin, numItems, ids, 1)}
	topo := transport.Topology{Peers: map[string]string{}, Assign: transport.StandardAssign("client")}
	for _, id := range ids {
		s, err := c.newSite(id, ids, topo)
		if err != nil {
			c.close()
			return nil, err
		}
		c.sites = append(c.sites, s)
	}
	// Every listener is bound (port 0) before any traffic flows, so the
	// shared peer table is complete before the first dial reads it.
	for _, s := range c.sites {
		topo.Peers[fmt.Sprintf("site%d", s.id)] = s.node.Addr()
	}
	for _, s := range c.sites {
		// Start the QM stats push and, at site 0, the detector's probe chain.
		s.rt.Post(engine.Envelope{From: engine.QMAddr(s.id), To: engine.QMAddr(s.id), Msg: model.TickMsg{}})
		if s.det != nil {
			s.rt.Post(engine.Envelope{From: engine.DetectorAddr(), To: engine.DetectorAddr(), Msg: model.TickMsg{}})
		}
	}
	if err := c.openLinks(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) newSite(id model.SiteID, ids []model.SiteID, topo transport.Topology) (*site, error) {
	s := &site{id: id, rt: engine.NewRuntime(engine.FixedLatency{}, int64(id)+1)}
	s.rt.SetMailboxDepth(mailboxDepth)
	s.store = storage.NewStore(id)
	for _, item := range c.pmap.CopiesAt(id) {
		s.store.Create(item, initialValue)
	}
	qmOpts := qm.Options{StatsPeriodMicros: statsPeriodUs, Shards: 1, MaxQueueDepth: queueDepth, InitialValue: initialValue}
	if c.cfg.durable {
		dev := wal.NewMemMedia()
		dev.SyncDelay = walSyncDelay
		s.media = &timedMedia{Media: dev}
		var err error
		s.log, err = wal.Open(s.media, s.store, wal.Options{
			SegmentBytes:  walSegmentBytes,
			SnapshotEvery: walSnapshotEvery,
			GroupCommit:   true,
		})
		if err != nil {
			return nil, fmt.Errorf("open wal: %w", err)
		}
		s.store.SetJournal(s.log)
		// GroupCommitMicros stays 0: sync each write before exposing it,
		// uccnode's default flush policy.
	}
	s.mgr = qm.New(id, s.store, c.cfg.recorder, qmOpts)
	if s.log != nil {
		s.mgr.SetDurable(s.log)
	}
	s.mgr.SetPartitionMap(c.pmap)
	c.register(s, engine.QMShardAddr(id, 0), s.mgr)

	s.iss = ri.New(id, c.pmap, c.cfg.recorder, ri.Options{
		PAIntervalMicros:     paIntervalUs,
		RestartDelayMicros:   restartDelayUs,
		DefaultComputeMicros: defaultComputeUs,
		QMShards:             1,
		Admission:            ri.AdmissionOptions{Enabled: true, InitialWindow: admissionWindow},
	}, nil)
	c.register(s, engine.RIAddr(id), s.iss)

	if id == 0 {
		s.det = deadlock.New(ids, deadlock.Options{PeriodMicros: detectorPeriodUs, PersistRounds: 2})
		c.register(s, engine.DetectorAddr(), s.det)
	}
	// Each site's collector is local, so TxnDoneMsg never leaves the site;
	// the observer in front of it is the benchmark's view of completions.
	s.obs = &observer{next: c.wrap(s, engine.CollectorAddr(), metrics.NewCollector(metrics.CollectorOptions{}))}
	s.rt.Register(engine.CollectorAddr(), s.obs)

	node, err := transport.NewNode(s.rt, fmt.Sprintf("site%d", id), "127.0.0.1:0", topo)
	if err != nil {
		s.rt.Shutdown()
		return nil, err
	}
	node.SetSendQueueCap(sendQueueCap)
	s.node = node
	return s, nil
}

func (c *cluster) wrap(s *site, addr engine.Addr, a engine.Actor) engine.Actor {
	if c.cfg.tracer == nil {
		return a
	}
	return c.cfg.tracer.wrap(s.id, addr, a)
}

func (c *cluster) register(s *site, addr engine.Addr, a engine.Actor) {
	s.rt.Register(addr, c.wrap(s, addr, a))
}

// openLinks makes every site dial every other site: a StopMsg (a no-op at
// an issuer) from each issuer to each remote issuer. The links are ready
// once every node has negotiated all its outbound connections.
func (c *cluster) openLinks() error {
	for _, s := range c.sites {
		for _, d := range c.sites {
			if d != s {
				s.rt.Post(engine.Envelope{From: engine.RIAddr(s.id), To: engine.RIAddr(d.id), Msg: model.StopMsg{}})
			}
		}
	}
	deadline := time.Now().Add(linkReadyTimeout)
	for {
		ready := true
		for _, s := range c.sites {
			if s.node.Wire().Snapshot().V3Conns < linksPerNode {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("peer links not ready after %v", linkReadyTimeout)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// quiesce waits until no transaction is active at any issuer and the
// queue managers' transaction counters have stopped moving (the last
// releases have been applied), or until the deadline.
func (c *cluster) quiesce(deadline time.Time) bool {
	var last uint64
	stable := 0
	for time.Now().Before(deadline) {
		active := 0
		var sum uint64
		for _, s := range c.sites {
			active += s.iss.Snapshot().Active
			q := s.mgr.Snapshot()
			sum += q.Requests + q.Releases + q.Aborts + q.SnapReads + q.Grants
		}
		if active == 0 && sum == last {
			stable++
			if stable >= 3 {
				return true
			}
		} else {
			stable = 0
		}
		last = sum
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// close stops the transports, then the runtimes, then flushes the WALs.
// After close the stores may be read without racing any handler.
func (c *cluster) close() {
	for _, s := range c.sites {
		if s.node != nil {
			s.node.Close()
		}
	}
	for _, s := range c.sites {
		s.rt.Shutdown()
	}
	for _, s := range c.sites {
		if s.log != nil {
			if err := s.log.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: site %d final wal flush: %v\n", s.id, err)
			}
		}
	}
}
