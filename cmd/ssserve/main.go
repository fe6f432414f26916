// Command ssserve is the long-running simulation job service: it accepts
// experiment jobs over an HTTP/JSON API and runs them on the deterministic
// engine worker pool, producing output byte-identical to a batch `ssbench`
// run of the same spec. See docs/ARCHITECTURE.md ("The job service") for
// the API and the determinism argument.
//
// Usage:
//
//	ssserve [-addr :8080] [-max-running N] [-queue N] [-timeout 15m] [-cache N] [-max-jobs N]
//
// Submit a job and fetch its output:
//
//	curl -s -X POST localhost:8080/jobs -d '{"experiment":"fig12","quick":true}'
//	curl -s localhost:8080/jobs/j1/output
//
// SIGINT or SIGTERM shuts the daemon down: it stops accepting
// connections, lets in-flight requests finish for a few seconds, cancels
// every queued and running job, waits for the runners to drain and exits
// 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/serve"
)

// errUsage reports arguments the command does not take.
var errUsage = errors.New("usage")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "ssserve: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and serves the job API until ctx is done (SIGINT or
// SIGTERM in main) or the listener fails. Either way it returns only after
// the HTTP server has shut down and every queued or running job has been
// canceled and its runner drained.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("ssserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	maxRunning := fs.Int("max-running", 0, "jobs executing concurrently (0 = one per CPU)")
	queue := fs.Int("queue", 0, "max jobs queued before submits get 503 (0 = 64)")
	timeout := fs.Duration("timeout", 0, "default per-job timeout (0 = 15m, -1ns = none)")
	cache := fs.Int("cache", 0, "completed-output cache entries (0 = 256, negative disables)")
	maxJobs := fs.Int("max-jobs", 0, "finished jobs retained in the job table (0 = 4096, negative retains all)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // Parse has printed the error and the usage
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return errUsage
	}

	s := serve.New(serve.Config{
		MaxRunning:   *maxRunning,
		MaxQueue:     *queue,
		JobTimeout:   *timeout,
		CacheEntries: *cache,
		MaxJobs:      *maxJobs,
	})
	defer s.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ssserve listening on %s\n", ln.Addr())
	return s.Serve(ctx, ln)
}
