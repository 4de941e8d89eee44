// Command uccnode runs one data/user site of the distributed system as a
// real process: the site's queue manager (with its storage partition), its
// request issuer, and — on site 0 — the deadlock-detection coordinator. The
// metrics collector and workload drivers live in cmd/uccclient.
//
// Example 3-site cluster on one machine:
//
//	uccnode -site 0 -sites 3 -listen :7700 -peers :7700,:7701,:7702 &
//	uccnode -site 1 -sites 3 -listen :7701 -peers :7700,:7701,:7702 &
//	uccnode -site 2 -sites 3 -listen :7702 -peers :7700,:7701,:7702 &
//	uccclient -peers :7700,:7701,:7702 -listen :7709 -rate 50 -duration 5s
//
// Every process must agree on -sites/-items/-replicas/-shards (they derive
// the same static catalog and the same item→shard routing).
//
// With -data-dir the site journals every committed write to a file-backed
// write-ahead log (group-committed) and snapshots its partition; after a
// crash — `kill -9` included — restarting with the same -data-dir rebuilds
// the partition from snapshot + log replay instead of reinitializing it.
//
// Overload defense defaults ON for a real node: mailboxes, per-item data
// queues, and per-peer send queues are all bounded (-mailbox-depth,
// -queue-depth, -send-queue-cap), requests past a bound are NAK'd busy
// rather than queued, and the issuer's admission controller (-admission,
// -admission-window, -admission-rate, -admission-target-ms) sheds arrivals
// beyond capacity so goodput plateaus instead of the node melting. Restart
// delays back off exponentially to -restart-delay-cap-us.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ucc/internal/deadlock"
	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/qm"
	"ucc/internal/repl"
	"ucc/internal/ri"
	"ucc/internal/storage"
	"ucc/internal/transport"
	"ucc/internal/wal"
)

func main() {
	var (
		site      = flag.Int("site", 0, "this node's site id (0-based)")
		sites     = flag.Int("sites", 3, "total number of sites")
		items     = flag.Int("items", 64, "number of logical data items")
		replicas  = flag.Int("replicas", 1, "physical copies per item")
		placeFlag = flag.String("placement", "round-robin", "epoch-0 placement policy: round-robin, range, or hash (all processes must agree)")
		shards    = flag.Int("shards", 1, "queue-manager shards per site (item-hash partitioned; all processes must agree)")
		initial   = flag.Int64("initial", 100, "initial value of every item")
		listen    = flag.String("listen", ":7700", "TCP listen address")
		peers     = flag.String("peers", "", "comma-separated site TCP addresses, index = site id")
		client    = flag.String("client", "", "client peer TCP address (collector/driver host); may be empty until a client connects inbound")
		detector  = flag.Int64("detector-period-ms", 50, "deadlock detection period (site 0 only)")
		paInt     = flag.Int64("pa-interval-us", 2000, "PA back-off interval INT (µs)")
		restart   = flag.Int64("restart-delay-us", 10000, "base restart delay after rejection/victim/busy (µs); doubles per failed attempt")
		restCap   = flag.Int64("restart-delay-cap-us", 0, "exponential restart backoff cap (µs); 0 = 32× the base delay")

		mailboxDepth = flag.Int("mailbox-depth", 8192, "actor mailbox bound: requests to a full QM-shard mailbox are NAK'd busy (0 = unbounded)")
		queueDepth   = flag.Int("queue-depth", 1024, "per-item data queue bound: requests beyond it are NAK'd busy (0 = unbounded)")
		sendCap      = flag.Int("send-queue-cap", 65536, "per-peer transport send-queue bound, drop-oldest beyond it (0 = unbounded)")

		admission = flag.Bool("admission", true, "enable the admission controller (AIMD in-flight window on new-transaction starts)")
		admWindow = flag.Int("admission-window", 128, "initial admission in-flight window per site")
		admRate   = flag.Float64("admission-rate", 0, "token-bucket cap on new-transaction starts per second (0 = no rate gate)")
		admTarget = flag.Int64("admission-target-ms", 0, "commit-latency target (ms); commits slower than this shrink the window (0 = busy-NAK signal only)")

		quorumN      = flag.Int("quorum-n", 0, "quorum replication: copies per item (0 with -quorum-w/-r = read-one/write-all; all processes must agree)")
		quorumW      = flag.Int("quorum-w", 0, "quorum replication: write quorum size (W of N grants commit a write)")
		quorumR      = flag.Int("quorum-r", 0, "quorum replication: read quorum size (R copies answer a read, highest commit stamp wins)")
		replPeriodMS = flag.Int64("repl-period-ms", 150, "WAL log-shipping catch-up pull period (ms)")
		replBatch    = flag.Int("repl-batch", 512, "records per catch-up batch (a cut batch re-pulls immediately)")

		dataDir  = flag.String("data-dir", "", "durability root: write-ahead log + snapshots under <dir>/site<N> (empty = volatile)")
		gcWindow = flag.Int64("wal-group-commit-us", 0, "group-commit window (µs); 0 (default) syncs each write before exposing it — a nonzero window amortizes syncs but a crash inside it loses writes other sites may have observed")
		segBytes = flag.Int("wal-segment-bytes", 1<<20, "WAL segment roll threshold")
		snapN    = flag.Uint64("wal-snapshot-every", 10000, "snapshot + truncate the WAL after this many journaled writes (0 = never)")

		moveAfter = flag.Duration("move-after", 0, "publish an online rebalance this long after startup: -move-items become primaried at -move-to (run on ONE node only — the epoch bump must have a single author)")
		moveItems = flag.String("move-items", "", "comma-separated item ids to move with -move-after")
		moveTo    = flag.Int("move-to", -1, "destination site id for -move-after/-move-items")
	)
	flag.Parse()

	peerList, err := parsePeers(*peers, *sites)
	if err != nil {
		log.Fatalf("uccnode: %v", err)
	}
	if *shards < 1 {
		*shards = 1
	}
	if *shards > 256 {
		// engine.Addr carries the shard index in a byte and QMShardAddr
		// truncates with uint8: above 256 shards, traffic for the high
		// shards would silently land in the wrong mailbox. Refuse, exactly
		// as cluster.Config.Validate does, so every entry point agrees.
		log.Fatalf("uccnode: -shards %d exceeds the maximum of 256 (shard index travels in one byte)", *shards)
	}
	topo := siteTopology(peerList, *client)
	quorum, err := quorumFromFlags(*quorumN, *quorumW, *quorumR, *replicas, *dataDir != "")
	if err != nil {
		log.Fatalf("uccnode: %v", err)
	}
	policy, err := placementFromFlag(*placeFlag)
	if err != nil {
		log.Fatalf("uccnode: %v", err)
	}

	// Build this site's slice of the system. Latency is the real network;
	// the runtime adds nothing on top.
	rt := engine.NewRuntime(engine.FixedLatency{}, int64(*site)+1)
	// Bound every mailbox registered below: new-work requests beyond the
	// bound are NAK'd busy rather than queued without limit.
	rt.SetMailboxDepth(*mailboxDepth)

	siteIDs := make([]model.SiteID, *sites)
	for i := range siteIDs {
		siteIDs[i] = model.SiteID(i)
	}
	pmap := placement.Build(policy, *items, siteIDs, *replicas)
	self := model.SiteID(*site)

	store := storage.NewStore(self)
	for _, item := range pmap.CopiesAt(self) {
		store.Create(item, *initial)
	}

	var siteLog *wal.SiteLog
	if *dataDir != "" {
		media, err := wal.NewDirMedia(filepath.Join(*dataDir, fmt.Sprintf("site%d", *site)))
		if err != nil {
			log.Fatalf("uccnode: %v", err)
		}
		siteLog, err = wal.Open(media, store, wal.Options{
			SegmentBytes:  *segBytes,
			SnapshotEvery: *snapN,
			GroupCommit:   true,
		})
		if err != nil {
			log.Fatalf("uccnode: open wal: %v", err)
		}
		store.SetJournal(siteLog)
		if st := siteLog.Stats(); st.Recoveries > 0 {
			log.Printf("uccnode: site %d recovered %d copies from snapshot, replayed %d WAL records",
				*site, st.RecoveredCopies, st.Replayed)
		} else {
			log.Printf("uccnode: site %d initialized fresh durable partition", *site)
		}
	}

	qmOpts := qm.Options{StatsPeriodMicros: 200_000, Shards: *shards, MaxQueueDepth: *queueDepth}
	if siteLog != nil {
		qmOpts.GroupCommitMicros = *gcWindow
	}
	qmOpts.InitialValue = *initial
	mgr := qm.New(self, store, nil, qmOpts)
	if siteLog != nil {
		mgr.SetDurable(siteLog)
	}
	mgr.SetPartitionMap(pmap)
	if quorum != nil {
		mgr.SetReplication(repl.NewPuller(repl.Options{
			Site:         self,
			Peers:        replPeersFor(pmap, self),
			PeriodMicros: *replPeriodMS * 1000,
			BatchRecords: *replBatch,
		}), siteLog)
	}
	// One mailbox goroutine per shard: items hash to shard addresses, so
	// conflict-free operations on this site's partition execute in parallel.
	for i := 0; i < mgr.NumShards(); i++ {
		rt.Register(engine.QMShardAddr(self, i), mgr)
	}

	issuer := ri.New(self, pmap, nil, ri.Options{
		PAIntervalMicros:      model.Timestamp(*paInt),
		RestartDelayMicros:    *restart,
		RestartDelayCapMicros: *restCap,
		DefaultComputeMicros:  1000,
		QMShards:              *shards,
		Quorum:                quorum,
		Admission: ri.AdmissionOptions{
			Enabled:             *admission,
			InitialWindow:       *admWindow,
			TokensPerSec:        *admRate,
			TargetLatencyMicros: *admTarget * 1000,
		},
	}, nil)
	rt.Register(engine.RIAddr(self), issuer)

	if self == 0 {
		det := deadlock.New(siteIDs, deadlock.Options{
			PeriodMicros:  *detector * 1000,
			PersistRounds: 2,
		})
		rt.Register(engine.DetectorAddr(), det)
		rt.Post(engine.Envelope{From: engine.DetectorAddr(), To: engine.DetectorAddr(), Msg: model.TickMsg{}})
	}
	// Start the QM stats push (reports flow to the client's collector).
	rt.Post(engine.Envelope{From: engine.QMAddr(self), To: engine.QMAddr(self), Msg: model.TickMsg{}})
	if quorum != nil {
		// Start the catch-up pull chain (tagged tick; re-arms itself).
		rt.Post(engine.Envelope{From: engine.QMAddr(self), To: engine.QMAddr(self), Msg: model.TickMsg{Tag: qm.ReplTickTag}})
	}

	node, err := transport.NewNode(rt, fmt.Sprintf("site%d", *site), *listen, topo)
	if err != nil {
		log.Fatalf("uccnode: %v", err)
	}
	node.SetSendQueueCap(*sendCap)
	log.Printf("uccnode: site %d up on %s (%d items stored, %d sites, %d replicas, placement=%s, %d qm shards, durability=%v, admission=%v)",
		*site, node.Addr(), store.Len(), *sites, *replicas, policy, mgr.NumShards(), siteLog != nil, *admission)

	if *moveAfter > 0 {
		moved, err := parseItems(*moveItems)
		if err != nil {
			log.Fatalf("uccnode: -move-items: %v", err)
		}
		if len(moved) == 0 || *moveTo < 0 || *moveTo >= *sites {
			log.Fatalf("uccnode: -move-after requires -move-items and a -move-to in [0,%d)", *sites)
		}
		next, err := placement.PlanMove(pmap, moved, model.SiteID(*moveTo))
		if err != nil {
			log.Fatalf("uccnode: plan move: %v", err)
		}
		time.AfterFunc(*moveAfter, func() {
			log.Printf("uccnode: site %d publishing epoch %d: %d items -> site %d", *site, next.Epoch, len(moved), *moveTo)
			// Install order mirrors the simulated controller: queue managers
			// first (owners flip and start transfers), then issuers (routers
			// re-aim). Post, not Inject: remote queue managers and issuers
			// are reached through the transport uplink.
			for _, s := range siteIDs {
				rt.Post(engine.Envelope{From: engine.QMAddr(self), To: engine.QMAddr(s), Msg: model.MapInstallMsg{Map: *next}})
			}
			for _, s := range siteIDs {
				rt.Post(engine.Envelope{From: engine.QMAddr(self), To: engine.RIAddr(s), Msg: model.MapUpdateMsg{Map: *next}})
			}
		})
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("uccnode: site %d shutting down", *site)
	ovf, mbHigh := rt.MailboxStats()
	dropped, sqHigh := node.QueueStats()
	st := issuer.Snapshot()
	log.Printf("uccnode: site %d backpressure: mailbox NAKs=%d high=%d, send-queue drops=%d high=%d, shed=%d, busy NAKs=%d",
		*site, ovf, mbHigh, dropped, sqHigh, st.Shed, st.BusyNAKs)
	ws := node.Wire().Snapshot()
	log.Printf("uccnode: site %d wire: out %d msgs/%d B (%.1f B/msg), in %d msgs/%d B (%.1f B/msg), conns=%d, unknown-tag frames=%d",
		*site, ws.MsgsOut, ws.BytesOut, ws.BytesPerMsgOut(), ws.MsgsIn, ws.BytesIn, ws.BytesPerMsgIn(), ws.V3Conns, ws.UnknownIn)
	if quorum != nil {
		qc := mgr.Snapshot()
		log.Printf("uccnode: site %d repl: pulls served=%d, applied=%d, dup-skipped=%d, snapshot resets=%d, watermarks=%v",
			*site, qc.ReplPulls, qc.ReplApplied, qc.ReplSkipped, qc.ReplResets, mgr.ReplWatermarks())
	}
	qc := mgr.Snapshot()
	log.Printf("uccnode: site %d placement: epoch=%d, map installs=%d, items gained=%d, wrong-epoch NAKs sent=%d, transfer pulls=%d applied=%d bytes=%d; issuer wrong-epoch NAKs=%d, map updates=%d",
		*site, mgr.CurrentMap().Epoch, qc.MapInstalls, qc.ItemsGained, qc.WrongEpoch,
		qc.TransferPulls, qc.TransferApplied, qc.TransferBytes, st.WrongEpochNAKs, st.MapUpdates)
	node.Close()
	rt.Shutdown()
	if siteLog != nil {
		// Final sync so a graceful shutdown loses nothing (an unclean one
		// falls back to snapshot + synced log prefix).
		if err := siteLog.Flush(); err != nil {
			log.Printf("uccnode: final wal flush: %v", err)
		}
	}
}
