// Command shardgw fronts N serve backends as one logical recommender.
// Session traffic is consistent-hash routed by session ID to its owner
// shard. Every backend serves the same static catalogue (start each with
// the same -dataset, -items, -features and -seed), and membership is
// fixed at start. The gateway answers every /catalog route with 501.
//
// Usage:
//
//	serve -addr :7101 -dataset uni -items 2000 -seed 1 &
//	serve -addr :7102 -dataset uni -items 2000 -seed 1 &
//	shardgw -addr :8080 -backend s0=http://127.0.0.1:7101 -backend s1=http://127.0.0.1:7102
//
//	curl localhost:8080/sessions/alice/recommend   # routed to alice's shard
//	curl localhost:8080/sessions                   # resident sessions, all shards
//	curl localhost:8080/healthz                    # ring + per-shard liveness
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"toppkg/internal/server"
	"toppkg/internal/shard"
)

// backendFlags collects repeated -backend id=url values.
type backendFlags []shard.Backend

func (b *backendFlags) String() string {
	parts := make([]string, len(*b))
	for i, be := range *b {
		parts[i] = be.ID + "=" + be.URL
	}
	return strings.Join(parts, ",")
}

func (b *backendFlags) Set(v string) error {
	id, url, ok := strings.Cut(v, "=")
	if !ok || id == "" || url == "" {
		return fmt.Errorf("want id=url, got %q", v)
	}
	*b = append(*b, shard.Backend{ID: id, URL: url})
	return nil
}

func main() {
	var backends backendFlags
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		vnodes   = flag.Int("vnodes", shard.DefaultVNodes, "virtual nodes per shard on the hash ring")
		retries  = flag.Int("retries", shard.DefaultRetries, "proxy retry attempts on dial failure")
		backoff  = flag.Duration("retry-backoff", shard.DefaultRetryBackoff, "first proxy retry delay (doubles per attempt)")
		probeIvl = flag.Duration("probe-interval", shard.DefaultProbeInterval, "background shard health probe interval")
		maxBody  = flag.Int64("max-body", shard.DefaultMaxBodyBytes, "proxied request body size limit in bytes")
		clientTO = flag.Duration("backend-timeout", 10*time.Second, "per-request timeout towards backends")
		readTO   = flag.Duration("read-timeout", server.DefaultReadTimeout, "max duration for reading an entire request incl. body (negative disables)")
		writeTO  = flag.Duration("write-timeout", server.DefaultWriteTimeout, "max duration for writing a response (negative disables)")
		idleTO   = flag.Duration("idle-timeout", server.DefaultIdleTimeout, "how long a keep-alive connection may sit idle (negative disables)")
		headerTO = flag.Duration("read-header-timeout", server.DefaultReadHeaderTimeout, "max duration for reading request headers (negative disables)")
	)
	flag.Var(&backends, "backend", "backend shard as id=url (repeat per shard)")
	flag.Parse()

	if len(backends) == 0 {
		log.Fatal("at least one -backend id=url is required")
	}
	gw, err := shard.New(shard.Config{
		VNodes:        *vnodes,
		Retries:       *retries,
		RetryBackoff:  *backoff,
		ProbeInterval: *probeIvl,
		MaxBodyBytes:  *maxBody,
		Client:        &http.Client{Timeout: *clientTO},
	}, backends)
	if err != nil {
		log.Fatal(err)
	}
	ids := make([]string, len(backends))
	for i, b := range backends {
		ids[i] = b.ID
	}
	fmt.Printf("gateway on %s fronting %d shards (%s), %d vnodes each\n",
		*addr, len(backends), strings.Join(ids, ", "), *vnodes)
	timeouts := server.Timeouts{ReadHeader: *headerTO, Read: *readTO, Write: *writeTO, Idle: *idleTO}
	srv := server.NewHTTPServer(*addr, gw, timeouts)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		log.Print("shutting down gateway")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // drain client connections first
		gw.Close()            // then stop the prober
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}
