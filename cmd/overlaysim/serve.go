package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// serve test hooks, nil outside the package tests: serveReady receives
// the bound address once the listener is up, and a close of serveStop
// triggers the same drain path a SIGTERM does.
var (
	serveReady chan<- string
	serveStop  <-chan struct{}
)

func newServeCmd() *command {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	df := addDaemonFlags(fs, "127.0.0.1:8080")
	workers := fs.Int("workers", 0, "jobs simulated concurrently (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 16, "accepted jobs that may wait behind the running ones")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job wall-clock cap (0 = unbounded)")
	cacheSize := fs.Int("cache", 128, "result cache entries (negative disables caching)")
	snapCache := fs.Int("snapshot-cache", 32, "warm-state snapshot cache families (negative disables warm-state reuse)")
	register := fs.String("register", "", "coordinator base `URL` to self-register with (worker mode)")
	advertise := fs.String("advertise", "", "base `URL` this worker registers as (default http://<bound addr>)")
	return &command{
		name:    "serve",
		summary: "serve experiment jobs over HTTP (wire protocol: docs/API.md)",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			if *workers < 0 {
				return usageError(fmt.Sprintf("invalid -workers %d: must be >= 0", *workers))
			}
			if *queue < 1 {
				return usageError(fmt.Sprintf("invalid -queue %d: must be >= 1", *queue))
			}
			if *jobTimeout < 0 {
				return usageError(fmt.Sprintf("invalid -job-timeout %s: must be >= 0", *jobTimeout))
			}
			if *advertise != "" && *register == "" {
				return usageError("-advertise requires -register")
			}
			d, cfg, err := df.open(stderr)
			if err != nil {
				return err
			}
			cfg.Workers = *workers
			cfg.QueueDepth = *queue
			cfg.JobTimeout = *jobTimeout
			cfg.CacheSize = *cacheSize
			cfg.SnapshotCacheSize = *snapCache
			// Worker mode: keep this server announced to the coordinator
			// until shutdown begins (docs/CLUSTER.md). Registration
			// failures are retried on the loop's cadence and never block
			// serving.
			regCtx, stopRegister := context.WithCancel(context.Background())
			defer stopRegister()
			if *register != "" {
				if *advertise == "" {
					*advertise = "http://" + d.ln.Addr().String()
				}
				go cluster.RegisterLoop(regCtx, *register, *advertise, 5*time.Second, cfg.Logger)
			}
			d.front = server.New(cfg).FrontEnd
			d.ready, d.stop, d.onShutdown = serveReady, serveStop, stopRegister
			return d.run(stdout)
		},
	}
}
