// Command ipaserver runs the IPA storage engine behind the wire
// protocol: it builds the simulated flash array, a NoFTL region with
// in-place appends enabled, opens the engine over it, optionally
// preloads the TPC-B tables, and serves TCP clients until SIGINT or
// SIGTERM triggers a graceful drain (finish accepted requests, abort
// orphaned transactions, close the database).
//
// Usage:
//
//	ipaserver                         # preload TPC-B scale 1, serve :7070
//	ipaserver -scale 4 -addr :9000    # bigger preload, custom port
//	ipaserver -scale 0 -ipa=false     # empty engine, IPA off
//
// Cluster mode starts one member of a replicated deployment; the lowest
// node id bootstraps as leader and preloads, the others join empty and
// catch up over the replication stream:
//
//	ipaserver -node-id 1 -peers 1=:7070,2=:7170,3=:7270
//	ipaserver -node-id 2 -peers 1=:7070,2=:7170,3=:7270
//	ipaserver -node-id 3 -peers 1=:7070,2=:7170,3=:7270
//
// The admin endpoint (default :7071) serves GET /stats — engine
// counters plus per-op latency histograms as JSON — and /healthz.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ipa/internal/engine"
	"ipa/internal/repl"
	"ipa/internal/server"
	"ipa/internal/sim"
	"ipa/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "wire-protocol listen address (cluster mode listens on this node's -peers entry instead)")
	admin := flag.String("admin", "127.0.0.1:7071", "admin HTTP listen address (empty disables)")
	scale := flag.Int("scale", 1, "TPC-B branches to preload (0 skips the preload)")
	accounts := flag.Int("accounts", 2000, "TPC-B accounts per branch")
	pageSize := flag.Int("page-size", 4096, "engine page size in bytes")
	chips := flag.Int("chips", 16, "flash chips (parallel units)")
	ipa := flag.Bool("ipa", true, "enable in-place appends ([2x3] scheme) on the data region (standalone only: cluster members always append in place)")
	inflight := flag.Int("inflight", 256, "global in-flight request cap")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	nodeID := flag.Uint64("node-id", 0, "this member's id within -peers (cluster mode)")
	peersFlag := flag.String("peers", "", `cluster membership as "1=host:port,2=host:port,..." (empty runs standalone)`)
	flag.Parse()

	var (
		peers     map[uint64]string
		bootstrap bool
		err       error
	)
	listenAddr := *addr
	if *peersFlag != "" {
		if peers, err = parsePeers(*peersFlag); err != nil {
			log.Fatalf("ipaserver: -peers: %v", err)
		}
		if _, ok := peers[*nodeID]; !ok {
			log.Fatalf("ipaserver: -node-id %d not present in -peers", *nodeID)
		}
		listenAddr = peers[*nodeID]
		// The lowest id bootstraps term 1; everyone else joins as a
		// follower and replays the leader's log (including the preload).
		bootstrap = true
		for id := range peers {
			if id < *nodeID {
				bootstrap = false
			}
		}
	}
	db, tl, err := buildEngine(*pageSize, *chips, *scale, *accounts, *ipa, peers != nil)
	if err != nil {
		log.Fatalf("ipaserver: %v", err)
	}
	var node *repl.Node
	if peers != nil {
		node, err = repl.NewNode(repl.Config{
			NodeID: *nodeID, Peers: peers, DB: db, TL: tl,
			Bootstrap: bootstrap, Logf: log.Printf,
		})
		if err != nil {
			log.Fatalf("ipaserver: %v", err)
		}
		log.Printf("ipaserver: cluster node %d (bootstrap=%v), peers %s",
			*nodeID, bootstrap, *peersFlag)
	}
	if *scale > 0 && (peers == nil || bootstrap) {
		wl := workload.NewTPCB(db, "data", *scale, *accounts)
		start := time.Now()
		if err := wl.Load(tl.NewWorker()); err != nil {
			log.Fatalf("ipaserver: %v", err)
		}
		log.Printf("ipaserver: preloaded TPC-B scale %d (%d accounts) in %v",
			*scale, wl.Accounts(), time.Since(start).Round(time.Millisecond))
	}

	cfg := server.Config{
		DB: db, Timeline: tl, MaxInflight: *inflight, Logf: log.Printf,
	}
	if node != nil {
		cfg.Repl = node
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("ipaserver: %v", err)
	}

	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		log.Fatalf("ipaserver: %v", err)
	}
	log.Printf("ipaserver: serving on %s", ln.Addr())
	if *admin != "" {
		adminLn, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("ipaserver: admin: %v", err)
		}
		log.Printf("ipaserver: admin on http://%s/stats", adminLn.Addr())
		go func() {
			if err := srv.ServeAdmin(adminLn); err != nil {
				log.Printf("ipaserver: admin: %v", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if err != nil {
			log.Fatalf("ipaserver: serve: %v", err)
		}
	case s := <-sig:
		log.Printf("ipaserver: %v: draining (timeout %v)", s, *drain)
		if node != nil {
			node.Stop()
		}
		if err := srv.Shutdown(*drain); err != nil {
			log.Fatalf("ipaserver: shutdown: %v", err)
		}
		<-serveErr
		log.Printf("ipaserver: database closed cleanly")
	}
}

// parsePeers decodes "1=host:port,2=host:port,..." into a peer map.
func parsePeers(s string) (map[uint64]string, error) {
	peers := make(map[uint64]string)
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("entry %q is not id=addr", part)
		}
		n, err := strconv.ParseUint(id, 10, 64)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("bad node id %q", id)
		}
		if _, dup := peers[n]; dup {
			return nil, fmt.Errorf("duplicate node id %d", n)
		}
		peers[n] = addr
	}
	if len(peers) < 2 {
		return nil, fmt.Errorf("a cluster needs at least 2 members, got %d", len(peers))
	}
	return peers, nil
}

// buildEngine assembles the flash → NoFTL → engine stack of both modes
// (repl.NewMemberDB), sized for the requested TPC-B preload: raw flash
// three times the loaded database and a pool that holds all of it. A
// cluster member is replicated and ignores -ipa=false (members replay
// one physical log, so all of them run [2×3]); nothing else differs.
func buildEngine(pageSize, chips, scale, accountsPerBranch int, ipa, member bool) (*engine.DB, *sim.Timeline, error) {
	accounts := scale * accountsPerBranch
	dataBytes := accounts*120 + accounts*20 + 1<<20
	pages := dataBytes/pageSize + 64
	return repl.NewMemberDB(repl.MemberSpec{
		Chips: chips, BlocksPerChip: pages*3/(chips*repl.PagesPerBlock) + 4,
		PageSize: pageSize, BufferFrames: pages + 64,
		Standalone: !member, NoIPA: !ipa && !member,
	})
}
