package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

// readHeaderTimeout bounds how long a client may take to send request
// headers, so slow or silent connections cannot pin the listener. It
// must stay below the 5 s Shutdown budget in run: http.Server.Shutdown
// waits for a connection that never sent a request (a client's pooled,
// unused dial) until this timeout closes it.
const readHeaderTimeout = 2 * time.Second

// daemonFlags are the flags serve and coordinator share.
type daemonFlags struct {
	name                             string
	addr, store, logFormat, logLevel *string
	grace                            *time.Duration
	notrace                          *bool
}

func addDaemonFlags(fs *flag.FlagSet, addr string) daemonFlags {
	return daemonFlags{
		name:      fs.Name(),
		addr:      fs.String("addr", addr, "listen `address` (host:port; port 0 picks a free port)"),
		grace:     fs.Duration("grace", 30*time.Second, "shutdown grace period for in-flight jobs"),
		store:     fs.String("store", "", "persistent result store `directory` (empty disables the durable tier)"),
		logFormat: fs.String("log-format", "json", "structured log format: json or text"),
		logLevel:  fs.String("log-level", "info", "log level: debug, info, warn or error"),
		notrace:   fs.Bool("no-trace", false, "disable per-job span tracing"),
	}
}

// open validates the shared flags and binds the listener. It returns
// the daemon to run plus the front-end settings the flags describe:
// logger, tracing and the persistent result store. Every failure is a
// usage error (exit 2).
func (f daemonFlags) open(stderr io.Writer) (daemon, server.Config, error) {
	var cfg server.Config
	if *f.grace <= 0 {
		return daemon{}, cfg, usageError(fmt.Sprintf("invalid -grace %s: must be > 0", *f.grace))
	}
	if *f.logFormat != "json" && *f.logFormat != "text" {
		return daemon{}, cfg, usageError(fmt.Sprintf("invalid -log-format %q: json or text", *f.logFormat))
	}
	level, ok := obs.ParseLevel(*f.logLevel)
	if !ok {
		return daemon{}, cfg, usageError(fmt.Sprintf("invalid -log-level %q: debug, info, warn or error", *f.logLevel))
	}
	cfg.Logger = obs.NewLogger(stderr, *f.logFormat, level)
	cfg.DisableTracing = *f.notrace
	if *f.store != "" {
		fsStore, err := cluster.NewFSStore(*f.store)
		if err != nil {
			return daemon{}, cfg, usageError(fmt.Sprintf("invalid -store: %v", err))
		}
		cfg.Store = fsStore
	}
	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		return daemon{}, cfg, usageError(fmt.Sprintf("invalid -addr: %v", err))
	}
	return daemon{name: f.name, ln: ln, grace: *f.grace, logger: cfg.Logger}, cfg, nil
}

// daemon is the process shell serve and coordinator share: one HTTP
// listener in front of one job front-end, a ready announcement, and a
// signal-driven drain.
type daemon struct {
	name   string // subcommand; prefixes every lifecycle log record
	ln     net.Listener
	front  *server.FrontEnd
	grace  time.Duration
	logger *slog.Logger
	detail string // appended to the stdout "listening on" line, which scripts parse
	attrs  []any  // extra attributes of the "listening" log record

	// Test hooks, nil outside the package tests: ready receives the
	// bound address once the listener is up, and a close of stop
	// triggers the same drain path a SIGTERM does.
	ready chan<- string
	stop  <-chan struct{}

	// onShutdown, when set, runs as soon as shutdown begins, before
	// the drain.
	onShutdown func()
}

// run serves the front-end until SIGINT/SIGTERM (or the stop hook),
// then drains: intake stops with 503, in-flight jobs get the grace
// period to finish, stragglers are cancelled. A clean drain returns
// nil; an expired grace period is a runtime error (exit 1).
func (d daemon) run(stdout io.Writer) error {
	hs := &http.Server{Handler: d.front.Handler(), ReadHeaderTimeout: readHeaderTimeout}

	sigCtx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	fmt.Fprintf(stdout, "overlaysim %s: listening on http://%s%s\n", d.name, d.ln.Addr(), d.detail)
	d.logger.Info("overlaysim "+d.name+": listening", append([]any{"addr", d.ln.Addr().String()}, d.attrs...)...)
	if d.ready != nil {
		d.ready <- d.ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(d.ln) }()

	select {
	case err := <-serveErr:
		return err // the listener died on its own
	case <-sigCtx.Done():
	case <-d.stop:
	}
	// Restore default signal handling so a second signal kills the
	// process instead of waiting out the grace period.
	stopSignals()
	if d.onShutdown != nil {
		d.onShutdown()
	}

	d.logger.Info("overlaysim "+d.name+": shutting down, draining jobs", "grace", d.grace.String())
	graceCtx, cancel := context.WithTimeout(context.Background(), d.grace)
	defer cancel()
	drainErr := d.front.Drain(graceCtx)

	// All jobs are terminal now, so event streams and waiting submits
	// unblock promptly; Shutdown just flushes the last responses.
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := hs.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr == nil {
		d.logger.Info("overlaysim " + d.name + ": drained cleanly")
	} else {
		d.logger.Error("overlaysim "+d.name+": drain failed", "err", drainErr.Error())
	}
	return drainErr
}
