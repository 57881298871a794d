// Command serve runs the package recommender as a multi-session HTTP/JSON
// service — the integration style the paper describes (§1): each user's
// recommendations are fetched at login, clicks are posted back as implicit
// feedback, and learned session state survives eviction and restarts via
// snapshots. One process serves many concurrent sessions over a single
// shared catalogue index; residency is bounded by an LRU.
//
// Usage:
//
//	serve -addr :8080 -dataset nba -features 5 -capacity 1024 -store ./sessions
//	curl localhost:8080/sessions/alice/recommend
//	curl -X POST localhost:8080/sessions/alice/click -d '{"chosen":[1,2],"shown":[[1,2],[3]]}'
//	curl localhost:8080/sessions            # list resident sessions
//	curl localhost:8080/healthz             # liveness + manager counters
//
// With -mutable-catalog the item set is live: admin requests mutate it and
// a background rebuilder swaps in fresh epochs without blocking serving:
//
//	serve -mutable-catalog -rebuild-coalesce 20ms
//	curl -X POST localhost:8080/catalog/items -d '{"items":[{"id":9000,"name":"new","values":[1,2,3,4,5]}]}'
//	curl -X DELETE localhost:8080/catalog/items/9000
//	curl localhost:8080/catalog             # epoch, item count, rebuild stats
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	_ "net/http/pprof" // registers debug handlers on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"toppkg/internal/catalog"
	"toppkg/internal/core"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
	"toppkg/internal/server"
	"toppkg/internal/session"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		kind     = flag.String("dataset", "nba", "dataset: uni, pwr, cor, ant, nba")
		items    = flag.Int("items", 2000, "item count (synthetic datasets)")
		features = flag.Int("features", 5, "feature count")
		phi      = flag.Int("phi", 5, "maximum package size")
		k        = flag.Int("k", 5, "recommended packages per slate")
		samples  = flag.Int("samples", 500, "weight-vector samples")
		sem      = flag.String("semantics", "exp", "ranking semantics: exp, tkp, mpo")
		psi      = flag.Float64("psi", 1, "feedback-noise tolerance (§7): a weight sample violating x preferences survives w.p. (1-psi)^x; 1 = hard constraints")
		capacity = flag.Int("capacity", session.DefaultCapacity, "resident sessions before LRU eviction")
		storeSpc = flag.String("store", "", "where evicted sessions persist: dir:PATH or a bare PATH (a snapshot directory), mem: (this process only); empty drops evicted state")
		maxBody  = flag.Int64("max-body", server.DefaultMaxBodyBytes, "request body size limit in bytes (≤ 0 selects the default)")
		restore  = flag.String("restore", "", "path of a session snapshot to restore into the session named \"default\" (served at /sessions/default/...)")
		seed     = flag.Int64("seed", 1, "random seed")
		cache    = flag.Int("cache", ranking.DefaultCacheSize, "shared Top-k-Pkg result cache entries (negative disables)")
		quantum  = flag.Float64("quantum", 0, "weight quantization step for TKP/MPO per-sample dedup/caching (0 = exact, bit-identical slates; EXP searches its mean vector exactly)")
		mutable  = flag.Bool("mutable-catalog", false, "serve a live catalogue: enable POST/DELETE /catalog/items with epoch-swapped index rebuilds")
		coalesce = flag.Duration("rebuild-coalesce", catalog.DefaultCoalesce, "how long the rebuilder waits for a mutation burst to settle before building the next epoch (negative: rebuild synchronously on every batch)")
		deltaThr = flag.Int("delta-threshold", catalog.DefaultDeltaThreshold, "max distinct items changed since the current epoch for the next build to take the incremental delta path (negative disables delta builds)")
		pprof    = flag.String("pprof", "", "mount net/http/pprof on this separate listen address (e.g. localhost:6060); empty disables")
		readTO   = flag.Duration("read-timeout", server.DefaultReadTimeout, "max duration for reading an entire request incl. body (negative disables)")
		writeTO  = flag.Duration("write-timeout", server.DefaultWriteTimeout, "max duration for writing a response (negative disables)")
		idleTO   = flag.Duration("idle-timeout", server.DefaultIdleTimeout, "how long a keep-alive connection may sit idle (negative disables)")
		headerTO = flag.Duration("read-header-timeout", server.DefaultReadHeaderTimeout, "max duration for reading request headers (negative disables)")
	)
	flag.Parse()

	// Fail fast on nonsensical sizing instead of panicking (or silently
	// selecting defaults) deep inside core.NewShared.
	if *features <= 0 {
		log.Fatalf("-features must be positive, got %d", *features)
	}
	if *phi <= 0 {
		log.Fatalf("-phi must be positive, got %d", *phi)
	}
	if *k <= 0 {
		log.Fatalf("-k must be positive, got %d", *k)
	}
	if *samples <= 0 {
		log.Fatalf("-samples must be positive, got %d", *samples)
	}
	if *psi <= 0 || *psi > 1 {
		// core maps Psi 0 to the noise-free default; an explicit 0 here is
		// almost certainly a misunderstanding of the knob, so reject it.
		log.Fatalf("-psi must be in (0, 1], got %g", *psi)
	}
	if *items <= 0 && *kind != "nba" && *kind != "NBA" {
		// The NBA synthesizer has a fixed cardinality and ignores -items.
		log.Fatalf("-items must be positive for synthetic datasets, got %d", *items)
	}

	rng := rand.New(rand.NewSource(*seed))
	data, err := dataset.Generate(*kind, *items, *features, rng)
	if err != nil {
		log.Fatal(err)
	}
	semantics, err := ranking.ParseSemantics(*sem)
	if err != nil {
		log.Fatal(err)
	}
	cycle := []feature.Agg{feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin}
	aggs := make([]feature.Agg, *features)
	for i := range aggs {
		aggs[i] = cycle[i%len(cycle)]
	}
	cacheSize := *cache
	if cacheSize == 0 {
		// core treats 0 as "default size"; map an explicit -cache 0 to the
		// smallest real cache instead of silently selecting the default.
		cacheSize = 1
	}
	cfg := core.Config{
		Items:           data,
		Profile:         feature.SimpleProfile(aggs...),
		MaxPackageSize:  *phi,
		K:               *k,
		Semantics:       semantics,
		SampleCount:     *samples,
		Psi:             *psi,
		Seed:            *seed,
		Search:          search.Options{MaxQueue: 128, MaxAccessed: 500},
		SearchCacheSize: cacheSize,
		WeightQuantum:   *quantum,
	}
	var (
		shared *core.Shared
		cat    *catalog.Catalog
	)
	if *mutable {
		cat, err = catalog.New(catalog.Config{
			Profile:        cfg.Profile,
			MaxPackageSize: *phi,
			Items:          data,
			Coalesce:       *coalesce,
			DeltaThreshold: *deltaThr,
		})
		if err != nil {
			log.Fatal(err)
		}
		shared, err = core.NewLiveShared(cfg, cat)
	} else {
		shared, err = core.NewShared(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	store, err := session.OpenStore(*storeSpc)
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := session.NewManager(session.Config{Shared: shared, Capacity: *capacity, Store: store})
	if err != nil {
		log.Fatal(err)
	}
	if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			log.Fatal(err)
		}
		snap, err := core.ReadSnapshot(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		var report core.RestoreReport
		err = mgr.Do(server.DefaultSessionID, func(eng *core.Engine) (err error) {
			report, err = eng.Restore(snap)
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		if report.DroppedItems > 0 || report.DroppedPrefs > 0 {
			log.Printf("restored default session from %s (snapshot v%d predates the current catalogue: dropped %d vanished items, %d preferences)",
				*restore, snap.Version, report.DroppedItems, report.DroppedPrefs)
		} else {
			log.Printf("restored default session from %s", *restore)
		}
	}
	// Connection timeouts apply to every listener: one stalled client must
	// never hold a connection (and a session lock window) indefinitely.
	timeouts := server.Timeouts{ReadHeader: *headerTO, Read: *readTO, Write: *writeTO, Idle: *idleTO}
	if *pprof != "" {
		// A separate listener keeps the profiling surface off the serving
		// port (and off any load balancer): the blank net/http/pprof import
		// registers its handlers on http.DefaultServeMux. It gets the same
		// timeouts as the serving listener; raise -write-timeout when
		// collecting profiles longer than it.
		go func() {
			log.Printf("pprof listening on %s/debug/pprof/", *pprof)
			psrv := server.NewHTTPServer(*pprof, nil, timeouts)
			if err := psrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}
	mode := "static catalogue"
	if *mutable {
		mode = "mutable catalogue"
	}
	fmt.Printf("serving %s (%d items, %d features, %s) on %s, capacity %d sessions\n",
		*kind, len(data), *features, mode, *addr, *capacity)
	srv := server.NewHTTPServer(*addr, server.New(mgr, server.Options{MaxBodyBytes: *maxBody, Catalog: cat}), timeouts)
	// Graceful shutdown: drain HTTP, quiesce the catalogue (every batch
	// acknowledged with 202/200 reaches a built epoch and the rebuilder
	// goroutine exits), then flush resident sessions to the snapshot store,
	// so learned state survives restarts, not just LRU pressure.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		log.Printf("shutting down: flushing %d resident sessions", mgr.Len())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if cat != nil {
			cat.Close()
		}
		mgr.Shutdown()
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done // ListenAndServe returned because Shutdown ran; wait out the flush
}
