// Command dabenchd serves the DABench-LLM pipeline as a long-lived
// HTTP JSON API. Unlike the one-shot dabench CLI, the daemon's
// graph and compile caches live as long as the process: identical
// specs coalesce across requests and warm experiment renders cost
// cache lookups, not simulation.
//
// Usage:
//
//	dabenchd [-addr :8080] [-parallel N] [-max-inflight M]
//	         [-timeout 2m] [-drain-timeout 15s] [-max-sweep-points 1024]
//	         [-data-dir DIR] [-store-budget BYTES] [-resp-cache-budget BYTES]
//	         [-max-job-points 1048576] [-allow-faults -fault-spec SPEC]
//	         [-node-id NAME -peers id=url,... [-advertise URL]]
//	         [-gossip-interval 1s] [-peer-timeout 500ms] [-version]
//
// Async jobs fan out on half the -parallel pool (at least one worker),
// leaving the other half to interactive requests.
//
// Clustering: -peers (with -node-id and -data-dir) joins the daemon to
// a static fleet that shares liveness only: nodes poll each other's
// /v1/gossip for health, store gauges and provenance chain tips, each
// probe bounded by -peer-timeout. No request asks a peer: a /v1/run
// local store miss recomputes and an async job runs every chunk on the
// node that accepted it, both cheaper than a round trip. See DESIGN.md
// "Cluster fabric".
//
// Observability: GET /metrics renders every internal counter plus
// per-request stage and per-platform pipeline latency histograms in
// Prometheus text exposition; each served response carries a
// Server-Timing header with its stage breakdown. With -data-dir every
// store blob write (one per cold /v1/run) also appends to a
// hash-linked provenance chain at DIR/provenance.log (GET
// /v1/provenance/{addr} looks records up; `dabench provenance verify`
// audits the chain offline). A chain that fails verification at
// startup is fatal.
//
// Repeat requests ride the warm serve path: responses carry strong
// ETags (If-None-Match revalidation answers 304 with no body and no
// simulation slot), and the response-byte cache — bounded by
// -resp-cache-budget, negative to disable — serves warm /v1/run,
// /v1/sweep and scenario bodies as pre-marshaled bytes with zero JSON
// work. With -data-dir the store's framed blobs keep /v1/run's bytes
// across restarts.
//
// For resilience testing the daemon can run with deliberate fault
// injection: -fault-spec takes a JSON spec (inline or a file path)
// describing which internal operations fail, how, and how often, and
// refuses to load unless -allow-faults acknowledges the intent. Under
// injected faults the daemon degrades rather than fails: store I/O is
// retried and circuit-broken, and /healthz reports per-component
// degraded state. A failing job chunk fails its job. See DESIGN.md
// "Failure model".
//
// With -data-dir the daemon is durable: each cold /v1/run persists its
// outcome and response bytes as one frame in a content-addressed store
// under DIR/store (so a restart answers a repeat /v1/run with zero
// simulation), and async /v1/jobs state is journaled under DIR/jobs
// (so a restart resumes interrupted jobs). Sweep, job and scenario
// points are not persisted: they recompute, because one blob write
// costs more than recomputing a point on every platform but the RDU.
// (The CLI's `experiments -data-dir` still mounts the store under its
// memo tiers.) Without -data-dir everything lives and dies with the
// process.
//
// Beyond single runs, sweeps and the paper's experiment artifacts, the
// daemon executes declarative multi-platform scenarios: GET
// /v1/scenarios lists the built-in library, GET /v1/scenarios/{name}
// runs one, and POST /v1/scenarios executes an arbitrary scenario
// document — synchronously under -max-sweep-points, as an async job
// above it.
//
// On SIGINT/SIGTERM the server drains gracefully: the listener closes,
// in-flight requests run to completion (bounded by -drain-timeout),
// the job manager stops, and the store flushes. See API.md for the
// endpoints.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"dabench/internal/cluster"
	"dabench/internal/faults"
	"dabench/internal/provenance"
	"dabench/internal/server"
	"dabench/internal/store"
	"dabench/internal/sweep"
	"dabench/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dabenchd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dabenchd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker pool size (1 = serial)")
	maxInflight := fs.Int("max-inflight", 0, "admitted concurrent heavy requests (0 = 2x -parallel)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-request deadline")
	drain := fs.Duration("drain-timeout", 15*time.Second, "graceful shutdown bound after SIGTERM")
	maxPoints := fs.Int("max-sweep-points", 1024, "hard cap on one /v1/sweep cross product")
	dataDir := fs.String("data-dir", "", "durable state directory (result store + job journal); empty = RAM only")
	storeBudget := fs.Int64("store-budget", 256<<20, "result-store on-disk byte budget (LRU eviction; <= 0 = unbounded)")
	respBudget := fs.Int64("resp-cache-budget", 32<<20, "in-memory response-byte cache budget (LRU eviction; < 0 = disabled)")
	maxJobPoints := fs.Int("max-job-points", 1<<20, "hard cap on one /v1/jobs cross product")
	faultSpec := fs.String("fault-spec", "", "fault-injection spec: inline JSON or a file path (requires -allow-faults)")
	allowFaults := fs.Bool("allow-faults", false, "acknowledge that -fault-spec deliberately injects failures")
	nodeID := fs.String("node-id", "", "this node's cluster name (required with -peers)")
	peers := fs.String("peers", "", "static cluster peers as id=url,id=url (requires -node-id and -data-dir)")
	advertise := fs.String("advertise", "", "base URL peers reach this node at (advertised in gossip)")
	gossipInterval := fs.Duration("gossip-interval", time.Second, "peer health-poll period")
	peerTimeout := fs.Duration("peer-timeout", 500*time.Millisecond, "per-peer gossip probe deadline")
	showVersion := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: the flag set has printed its usage to stderr
		}
		return err
	}
	if *showVersion {
		fmt.Println("dabenchd", version.Version)
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *parallel < 1 || *parallel > sweep.MaxWorkers {
		return fmt.Errorf("-parallel must be in [1, %d], got %d", sweep.MaxWorkers, *parallel)
	}
	if *maxInflight < 0 {
		return fmt.Errorf("-max-inflight must be >= 0, got %d", *maxInflight)
	}
	if *timeout <= 0 || *drain <= 0 {
		return errors.New("-timeout and -drain-timeout must be positive")
	}
	if *maxPoints < 1 {
		return fmt.Errorf("-max-sweep-points must be >= 1, got %d", *maxPoints)
	}
	if *maxJobPoints < 1 {
		return fmt.Errorf("-max-job-points must be >= 1, got %d", *maxJobPoints)
	}
	if *peers == "" && *nodeID != "" {
		return errors.New("-node-id without -peers names a cluster of one; drop it or add -peers")
	}

	// The injector deliberately breaks things; a daemon must never pick
	// one up by accident (a stale wrapper script, a copy-pasted unit
	// file), so the spec refuses to load without the explicit -allow-faults
	// acknowledgement.
	var inj *faults.Injector
	if *faultSpec != "" {
		if !*allowFaults {
			return errors.New("-fault-spec injects failures on purpose; pass -allow-faults to confirm")
		}
		var err error
		if inj, err = faults.Load(*faultSpec); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dabenchd: FAULT INJECTION ACTIVE (%d rules, seed %d)\n",
			len(inj.Stats().Rules), inj.Stats().Seed)
	}

	// The cluster fabric validates before any state opens: a typo in
	// -peers must fail the boot, not strand a half-configured node in the
	// fleet.
	var fab *cluster.Fabric
	if *peers != "" {
		if *nodeID == "" {
			return errors.New("-peers requires -node-id (every fleet member needs a unique name)")
		}
		if *dataDir == "" {
			return errors.New("-peers requires -data-dir (gossip reports the store's gauges and the provenance chain tip)")
		}
		pcs, err := cluster.ParsePeers(*peers)
		if err != nil {
			return err
		}
		if fab, err = cluster.New(cluster.Config{
			NodeID: *nodeID, SelfURL: *advertise, Peers: pcs,
			GossipInterval: *gossipInterval, FetchTimeout: *peerTimeout,
			Injector: inj,
		}); err != nil {
			return err
		}
	}

	sweep.SetDefaultWorkers(*parallel)
	inflight := *maxInflight
	if inflight == 0 {
		inflight = 2 * *parallel
	}

	cfg := server.Config{
		MaxInFlight:     inflight,
		RequestTimeout:  *timeout,
		MaxSweepPoints:  *maxPoints,
		RespCacheBudget: *respBudget,
		MaxJobPoints:    *maxJobPoints,
		Injector:        inj,
	}
	// The one injector reaches every hook tier: the store's I/O sites
	// (via Options), the fabric's peer calls (via cluster.Config), and
	// the job journal + chunk executor (via server.Config above).
	if *dataDir != "" {
		// The provenance chain opens before the store so its Close defers
		// after the store's flush — the last write-behind blobs append
		// before the chain file closes. A chain that fails verification
		// is a fatal startup error on purpose: tamper evidence that gets
		// silently rebuilt is not evidence.
		prov, err := provenance.Open(filepath.Join(*dataDir, "provenance.log"))
		if err != nil {
			return fmt.Errorf("provenance chain at %s is broken — investigate before serving (or move the file aside to start a fresh chain): %w",
				filepath.Join(*dataDir, "provenance.log"), err)
		}
		defer prov.Close()
		st, err := store.OpenOptions(filepath.Join(*dataDir, "store"),
			store.Options{Budget: *storeBudget, Injector: inj,
				OnWrite: func(ev store.WriteEvent) {
					prov.Append(ev.Addr, ev.Platform, ev.SpecKey, store.PipelineVersion)
				}})
		if err != nil {
			return err
		}
		defer st.Close() // flush the write-behind queue on the way out
		// The store backs /v1/run's byte lane only (server.Config.Store);
		// the memo tiers stay RAM-only, so sweep, job and scenario points
		// recompute instead of paying a blob write each.
		cfg.Store = st
		cfg.Provenance = prov
		cfg.JobsDir = filepath.Join(*dataDir, "jobs")
		fmt.Fprintf(os.Stderr, "dabenchd: durable state in %s (%d store entries warm, budget %d bytes, provenance chain at %d records)\n",
			*dataDir, st.Stats().Entries, *storeBudget, prov.Stats().Records)
	}
	cfg.Cluster = fab
	h, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer h.Close()
	if fab != nil {
		fab.Start()
		defer fab.Close() // before the store flush: no gossip against closing state
		fmt.Fprintf(os.Stderr, "dabenchd: cluster fabric up as %s (%d peers, gossip every %s)\n",
			*nodeID, len(fab.Stats().Peers), *gossipInterval)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "dabenchd: listening on %s (%d workers, %d in-flight slots)\n",
		ln.Addr(), *parallel, inflight)

	select {
	case err := <-errCh:
		return err // Serve never returns nil
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Fprintln(os.Stderr, "dabenchd: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
