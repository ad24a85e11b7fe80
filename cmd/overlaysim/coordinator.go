package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
)

// coordinator test hooks, nil outside the package tests: coordReady
// receives the bound address once the listener is up, and a close of
// coordStop triggers the same drain path a SIGTERM does.
var (
	coordReady chan<- string
	coordStop  <-chan struct{}
)

func newCoordinatorCmd() *command {
	fs := flag.NewFlagSet("coordinator", flag.ContinueOnError)
	df := addDaemonFlags(fs, "127.0.0.1:8090")
	var workers []string
	fs.Func("worker", "worker base `URL` to shard jobs across (repeatable); workers may also self-register",
		func(v string) error {
			workers = append(workers, v)
			return nil
		})
	healthEvery := fs.Duration("health-interval", 2*time.Second, "worker /readyz probe period")
	retryAfter := fs.Duration("retry-after", 2*time.Second, "Retry-After hint returned when every shard is saturated")
	attempts := fs.Int("forward-attempts", 3, "shards one job may be routed to before it fails")
	return &command{
		name:    "coordinator",
		summary: "shard jobs across serve workers (topology: docs/CLUSTER.md)",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			if *healthEvery <= 0 {
				return usageError(fmt.Sprintf("invalid -health-interval %s: must be > 0", *healthEvery))
			}
			if *retryAfter <= 0 {
				return usageError(fmt.Sprintf("invalid -retry-after %s: must be > 0", *retryAfter))
			}
			if *attempts < 1 {
				return usageError(fmt.Sprintf("invalid -forward-attempts %d: must be >= 1", *attempts))
			}
			d, fcfg, err := df.open(stderr)
			if err != nil {
				return err
			}
			d.front = cluster.New(cluster.Config{
				Workers:         workers,
				Store:           fcfg.Store,
				HealthInterval:  *healthEvery,
				RetryAfter:      *retryAfter,
				ForwardAttempts: *attempts,
				Logger:          fcfg.Logger,
				DisableTracing:  fcfg.DisableTracing,
			}).FrontEnd
			d.detail = fmt.Sprintf(" (%d static workers)", len(workers))
			d.attrs = []any{"workers", len(workers)}
			d.ready, d.stop = coordReady, coordStop
			return d.run(stdout)
		},
	}
}
