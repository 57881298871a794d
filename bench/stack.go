package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"toppkg/internal/catalog"
	"toppkg/internal/core"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
	"toppkg/internal/server"
	"toppkg/internal/session"
)

// stack is the serving stack under test, built in-process the way
// cmd/loadgen's buildStack does: catalogue → core.Shared → session.Manager
// → server.New on a loopback listener.
type stack struct {
	wl     *workload
	shared *core.Shared
	cat    *catalog.Catalog // nil on a static catalogue
	mgr    *session.Manager
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error // result of hs.Serve
}

// datasetSeed freezes each workload's dataset. The run's seed drives the
// traffic (population draws, mutation values, hidden users) but not the
// items: search cost depends on the dataset instance far more than any
// bound allows — on large_uni the login median runs from 102 ms to 191 ms
// over dataset seeds 1..5 — so runs on different seeds could not be
// compared if it moved with them.
const datasetSeed = 1

// genItems makes the workload's dataset.
func genItems(wl *workload, n int) ([]feature.Item, error) {
	return dataset.Generate(wl.dataset, n, stackFeatures, rand.New(rand.NewSource(datasetSeed)))
}

func searchOpts() search.Options {
	return search.Options{MaxQueue: searchQueue, MaxAccessed: searchAccess}
}

// prior is the workload's weight prior (nil: core's origin-centred default).
func prior(wl *workload) *gaussmix.Mixture {
	if !wl.monotone() {
		return nil
	}
	mean := make([]float64, stackFeatures)
	for i := range mean {
		mean[i] = wl.priorMean
	}
	return gaussmix.Gaussian(mean, wl.priorStd)
}

func coreConfig(wl *workload, items []feature.Item, seed int64) core.Config {
	return core.Config{
		Items:          items,
		Profile:        feature.SimpleProfile(wl.aggs...),
		MaxPackageSize: stackPhi,
		K:              stackK,
		Semantics:      ranking.EXP,
		SampleCount:    stackSamples,
		Prior:          prior(wl),
		Psi:            stackPsi,
		WeightQuantum:  wl.quantum,
		Seed:           seed,
		Search:         searchOpts(),
	}
}

// stackHooks are the traced run's ways in: wrap goes around the server's
// handler (the server.handle span); beforeShared and afterShared run just
// before and after core.NewLiveShared subscribes to the catalogue, so
// subscribers registered there bracket core's own.
type stackHooks struct {
	wrap                      func(http.Handler) http.Handler
	beforeShared, afterShared func(*catalog.Catalog)
}

// buildStack stands the stack up and returns once it answers /healthz. The
// time this function takes is setup_s: dataset generation happened before
// it, and for the monotone workloads the head set and the partition are
// materialised here, not on the first search.
func buildStack(wl *workload, items []feature.Item, seed int64, hc *http.Client, hooks stackHooks) (*stack, error) {
	cfg := coreConfig(wl, items, seed)
	st := &stack{wl: wl}
	var err error
	if wl.churn {
		st.cat, err = catalog.New(catalog.Config{
			Profile:        cfg.Profile,
			MaxPackageSize: stackPhi,
			Items:          items,
			Coalesce:       catalog.DefaultCoalesce,
			DeltaThreshold: catalog.DefaultDeltaThreshold,
		})
		if err != nil {
			return nil, err
		}
		if hooks.beforeShared != nil {
			hooks.beforeShared(st.cat)
		}
		st.shared, err = core.NewLiveShared(cfg, st.cat)
		if err == nil && hooks.afterShared != nil {
			hooks.afterShared(st.cat)
		}
	} else {
		st.shared, err = core.NewShared(cfg)
	}
	if err != nil {
		return nil, err
	}
	if wl.monotone() {
		st.shared.Index().Heads()
		st.shared.Index().EnsurePartition(0)
	}
	// Capacity above the population, as cmd/loadgen: the runs measure
	// serving, not eviction policy (session.* probes cover that).
	st.mgr, err = session.NewManager(session.Config{Shared: st.shared, Capacity: wl.population + qualityUsers + 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = server.New(st.mgr, server.Options{Catalog: st.cat})
	var h http.Handler = st.srv
	if hooks.wrap != nil {
		h = hooks.wrap(h)
	}
	st.hs = server.NewHTTPServer(ln.Addr().String(), h, server.Timeouts{})
	st.url = "http://" + ln.Addr().String()
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	resp, err := hc.Get(st.url + "/healthz")
	if err != nil {
		st.stop()
		return nil, fmt.Errorf("stack not ready: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		st.stop()
		return nil, fmt.Errorf("stack not ready: /healthz = %d", resp.StatusCode)
	}
	return st, nil
}

// stop shuts the listener down and waits for the serve goroutine, the
// catalogue's rebuilder and the manager's writers to end.
func (st *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = st.hs.Shutdown(ctx)
	if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("# listener: %v\n", err)
	}
	if st.cat != nil {
		st.cat.Close()
	}
	st.mgr.Close()
}

// newClient is the generator's one HTTP client: at most c connections in
// total, whatever the number of goroutines using it.
func newClient(c int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     c,
			MaxIdleConns:        c,
			MaxIdleConnsPerHost: c,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
}
