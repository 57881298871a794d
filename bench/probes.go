package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"toppkg/internal/core"
	"toppkg/internal/feature"
	"toppkg/internal/server"
	"toppkg/internal/session"
	"toppkg/internal/shard"
)

// subsystemProbes measures the two layers none of the five workloads puts
// on its path — the shard gateway and the session manager's evict/restore
// cycle — on a small stack of serve_static's shape, so that a change there
// has a number. The values do not depend on the workload being traced.
func subsystemProbes(rep *report, seed int64) {
	zero := func(err error) {
		fmt.Printf("# subsystem probes skipped: %v\n", err)
		for _, m := range [][2]string{{"shard.hop_p50_us", "us"}, {"shard.retries", "count"}, {"session.restore_p50_us", "us"},
			{"session.evict_save_p50_us", "us"}, {"session.heap_kb_per_session", "KB"}} {
			rep.set(m[0], 0, m[1], 0)
		}
	}
	wl := &workloads[0]
	items, err := genItems(wl, wl.items)
	if err != nil {
		zero(err)
		return
	}
	if err := shardProbe(rep, wl, items, seed); err != nil {
		zero(err)
		return
	}
	shared, err := core.NewShared(coreConfig(wl, items, seed))
	if err != nil {
		zero(err)
		return
	}
	sessionProbe(rep, shared)
}

// shardProbe sends the same 500 clicks through shard.New → one backend and
// straight to the backend, alternating; the hop is the difference of the
// medians.
func shardProbe(rep *report, wl *workload, items []feature.Item, seed int64) error {
	hc := newClient(2)
	defer hc.CloseIdleConnections()
	st, err := buildStack(wl, items, seed, hc, stackHooks{})
	if err != nil {
		return err
	}
	defer st.stop()
	gw, err := shard.New(shard.Config{}, []shard.Backend{{ID: "s0", URL: st.url}})
	if err != nil {
		return err
	}
	defer gw.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := server.NewHTTPServer(ln.Addr().String(), gw, server.Timeouts{})
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("# gateway listener: %v\n", err)
		}
	}()
	direct := newHTTPBackend(st.url, hc)
	via := newHTTPBackend("http://"+ln.Addr().String(), hc)
	const clicks = 500
	var dUs, vUs []float64
	dSlate, err := direct.recommend(0, "hop-direct", true)
	if err != nil {
		return err
	}
	vSlate, err := via.recommend(0, "hop-via", true)
	if err != nil {
		return err
	}
	for i := 0; i < clicks; i++ {
		t0 := now()
		if err := direct.click(i, "hop-direct", dSlate.rec[0], dSlate.all); err != nil {
			return err
		}
		t1 := now()
		if err := via.click(i, "hop-via", vSlate.rec[0], vSlate.all); err != nil {
			return err
		}
		t2 := now()
		dUs = append(dUs, float64(t1-t0)/1e3)
		vUs = append(vUs, float64(t2-t1)/1e3)
	}
	rep.set("shard.hop_p50_us", median(vUs)-median(dUs), "us", clicks)
	var health struct {
		Gateway struct {
			Retries float64 `json:"proxy_retries"`
		} `json:"gateway"`
	}
	resp, err := hc.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		return err
	}
	rep.set("shard.retries", health.Gateway.Retries, "count", 0)
	return nil
}

// sessionProbe cycles 256 sessions through a capacity-64 manager over a
// MemStore. An evict-save is timed as FlushMatching on one resident
// session (snapshot + save, synchronous on the caller); a restore as
// Manager.Do on a session that is only in the store. Heap per session is
// the live-heap growth of 256 resident sessions, each with its sample pool
// drawn and one preference recorded.
func sessionProbe(rep *report, shared *core.Shared) {
	const cycled, capacity = 256, 64
	id := func(i int) string { return fmt.Sprintf("cyc%03d", i) }
	learn := func(eng *core.Engine) error {
		if _, err := eng.Samples(); err != nil {
			return err
		}
		a, b := eng.RandomPackage(), eng.RandomPackage()
		for a.Signature() == b.Signature() {
			b = eng.RandomPackage()
		}
		return eng.Feedback(a, b)
	}

	roomy, err := session.NewManager(session.Config{Shared: shared, Capacity: 2 * cycled})
	if err == nil {
		heap := func() float64 {
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		}
		h0 := heap()
		for i := 0; i < cycled; i++ {
			_ = roomy.Do(id(i), learn)
		}
		rep.set("session.heap_kb_per_session", (heap()-h0)/cycled/1024, "KB", cycled)
		roomy.Close()
	} else {
		rep.set("session.heap_kb_per_session", 0, "KB", 0)
	}

	mgr, err := session.NewManager(session.Config{Shared: shared, Capacity: capacity, Store: session.NewMemStore()})
	if err != nil {
		rep.set("session.restore_p50_us", 0, "us", 0)
		rep.set("session.evict_save_p50_us", 0, "us", 0)
		return
	}
	defer mgr.Close()
	for i := 0; i < cycled; i++ {
		_ = mgr.Do(id(i), learn)
	}
	mgr.Flush()
	// The first cycled−capacity sessions now live only in the store.
	var restore, evict []float64
	for i := 0; i < cycled-capacity; i++ {
		restore = append(restore, timeUs(func() { _ = mgr.Do(id(i), func(*core.Engine) error { return nil }) }))
		mgr.Flush()
		target := id(i)
		evict = append(evict, timeUs(func() { mgr.FlushMatching(func(s string) bool { return s == target }) }))
	}
	rep.set("session.restore_p50_us", median(restore), "us", len(restore))
	rep.set("session.evict_save_p50_us", median(evict), "us", len(evict))
}
