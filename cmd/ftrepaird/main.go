// Command ftrepaird is the repair daemon: an HTTP/JSON service that accepts
// fault-tolerance repair jobs, runs them on a worker pool with bounded
// queueing, content-addressed result caching (optionally spilled to disk),
// cost-aware admission control, and per-job deadlines, and exposes status,
// streaming progress, health, and Prometheus metrics.
//
// Usage:
//
//	ftrepaird -addr :8727 -workers 4 -queue 64 -cache 256 -default-timeout 5m
//	ftrepaird -spill-dir /var/lib/ftrepaird -quota-rate 2 -shed-watermark 32
//	ftrepaird -mode coordinator -replicas http://n1:8727,http://n2:8727,http://n3:8727
//
// In coordinator mode the process runs no synthesis itself: it consistent-
// hash routes submissions across the configured replicas by content key,
// fails over around dead replicas, and relays job status and event streams,
// presenting the same HTTP surface as a single daemon.
//
// API:
//
//	POST   /v1/repair             {"case":"ba","n":3}  or  {"model":"program ..."}
//	GET    /v1/jobs/{id}          job status and (when done) the verified result
//	GET    /v1/jobs/{id}/events   progress stream: SSE, or JSON long-poll with ?poll=1
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET    /healthz               liveness (coordinator mode: per-replica view)
//	GET    /metrics               queue depth, cache hit ratio, per-phase latency
//	                              (Prometheus text; /metrics.json for the same as JSON)
//	GET    /debug/pprof/          Go profiling endpoints (only with -pprof)
//
// See the README's "Running the service" and "Clustering" sections for curl
// examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8727", "listen address")
		mode       = flag.String("mode", "single", "single (run jobs locally) or coordinator (route jobs across -replicas)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue", 64, "bounded work-queue depth")
		cacheSize  = flag.Int("cache", 256, "result-cache entries")
		defTimeout = flag.Duration("default-timeout", 5*time.Minute, "per-job deadline when the spec sets none")
		withPprof  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in: exposes goroutine dumps and heap profiles)")
		verbose    = flag.Bool("v", false, "log job lifecycle events")

		// Persistent spill + admission control (single mode).
		spillDir    = flag.String("spill-dir", "", "directory for the persistent result-cache spill (empty = memory-only cache)")
		spillMax    = flag.Int("spill-entries", 4096, "max spill entries on disk (oldest evicted first)")
		quotaRate   = flag.Float64("quota-rate", 0, "per-client admitted submissions per second, token bucket (0 = no quotas)")
		quotaBurst  = flag.Int("quota-burst", 8, "per-client token-bucket burst")
		shedMark    = flag.Int("shed-watermark", 0, "shed predicted-expensive jobs once the general queue lane holds this many (0 = off)")
		fastWorkers = flag.Int("fast-workers", 0, "pool workers reserved for the predicted-cheap fast lane")
		fastLane    = flag.Duration("fast-lane", 100*time.Millisecond, "predicted serial wall time under which a job takes the fast lane (negative = off)")
		costScale   = flag.Int64("cost-budget-scale", 0, "NodeBudget = scale x predicted peak nodes for predicted-expensive jobs without their own budget (0 = off)")

		// Coordinator mode.
		replicas = flag.String("replicas", "", "comma-separated replica base URLs (coordinator mode)")
		vnodes   = flag.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 = default)")
		probe    = flag.Duration("probe-interval", 5*time.Second, "replica health-probe period (coordinator mode; 0 = request-path detection only)")
	)
	flag.Parse()

	var handler http.Handler
	var shutdown func()
	switch *mode {
	case "single":
		cfg := service.Config{
			Workers:         *workers,
			QueueDepth:      *queueDepth,
			CacheEntries:    *cacheSize,
			DefaultTimeout:  *defTimeout,
			SpillDir:        *spillDir,
			SpillEntries:    *spillMax,
			QuotaRate:       *quotaRate,
			QuotaBurst:      *quotaBurst,
			ShedWatermark:   *shedMark,
			FastWorkers:     *fastWorkers,
			FastLaneNS:      fastLane.Nanoseconds(),
			CostBudgetScale: *costScale,
		}
		if *verbose {
			cfg.Logf = log.Printf
		}
		svc := service.New(cfg)
		handler = svc.Handler()
		shutdown = svc.Close
		log.Printf("ftrepaird: serving on %s (workers=%d queue=%d cache=%d spill=%q pprof=%t)",
			*addr, cfg.Workers, cfg.QueueDepth, cfg.CacheEntries, cfg.SpillDir, *withPprof)
	case "coordinator":
		ccfg := cluster.Config{
			Replicas:      splitList(*replicas),
			VirtualNodes:  *vnodes,
			ProbeInterval: *probe,
		}
		if *verbose {
			ccfg.Logf = log.Printf
		}
		coord, err := cluster.New(ccfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ftrepaird:", err)
			os.Exit(1)
		}
		handler = coord.Handler()
		shutdown = coord.Close
		log.Printf("ftrepaird: coordinating %d replicas on %s (vnodes=%d probe=%v)",
			len(ccfg.Replicas), *addr, *vnodes, *probe)
	default:
		fmt.Fprintf(os.Stderr, "ftrepaird: unknown -mode %q (want single or coordinator)\n", *mode)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftrepaird:", err)
		os.Exit(1)
	}
	if *withPprof {
		// The profiling endpoints are mounted only on explicit request: they
		// expose process internals and cost CPU while scraped, so a production
		// daemon keeps them off unless an operator is debugging it.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{Handler: handler}

	// Graceful shutdown: stop accepting, cancel live jobs, drain workers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("ftrepaird: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		shutdown()
	}()

	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "ftrepaird:", err)
		os.Exit(1)
	}
	<-done
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
