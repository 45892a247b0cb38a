// Command plumserve is the fault-tolerant sweep-serving daemon: it
// accepts experiment requests over HTTP (POST /run), schedules each as
// a hermetic simulated world on a bounded worker pool, and streams
// NDJSON result rows back as epochs complete.  Identical requests
// collapse to one simulation (singleflight), completed results land in
// a crash-safe content-addressed cache, overload is shed with 429 +
// Retry-After, and SIGTERM drains gracefully: /readyz flips first,
// in-flight worlds finish (or are cancelled cooperatively at the drain
// deadline), and the cache index is flushed.
//
// Quickstart:
//
//	plumserve -addr 127.0.0.1:8080 -cache /tmp/plum-cache &
//	curl -s -d '{"p":8,"cycles":4,"mapper":"heu"}' http://127.0.0.1:8080/run
//
// The host plane is mounted on the same listener: /metrics (the obs
// registry as Prometheus text), /healthz (running or draining), and the
// Go profiler under /debug/pprof.
//
// -oneshot runs one request offline — no daemon, no cache — and prints
// the exact bytes the daemon would serve for it: the byte-identity
// oracle of the chaos harness and a debugging tool in its own right.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"plum/internal/core"
	"plum/internal/scenario"
	"plum/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entrypoint: 0 on success (including a clean
// drain), 1 on runtime failure, 2 on usage errors.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plumserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	cacheDir := fs.String("cache", "", "crash-safe result cache directory (default: no cache)")
	workers := fs.Int("workers", 0, "concurrently simulating worlds (default: GOMAXPROCS)")
	queue := fs.Int("queue", 0, "requests waiting beyond the workers before shedding"+
		" with 429 (default: 2x workers)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long SIGTERM lets"+
		" in-flight worlds finish before cancelling them cooperatively")
	reqTimeout := fs.Duration("timeout", 0, "default per-request deadline for requests"+
		" that name no timeout_seconds (0: none)")
	scenarioDir := fs.String("scenario-dir", "", "scenario corpus directory of *.json specs"+
		" requests may name (default: none loaded)")
	chaos := fs.Bool("chaos", false, "accept fault-injection requests (the \"chaos\" field);"+
		" for robustness testing only")
	paper := fs.Bool("paper", false, "serve paper-scale worlds (slower; default: reduced scale)")
	oneshot := fs.Bool("oneshot", false, "read one request JSON from stdin, run it offline,"+
		" print the exact response body the daemon would serve, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "plumserve: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}

	// The corpus loads before the harness: a bad corpus fails fast.
	var specs []*scenario.Spec
	if *scenarioDir != "" {
		var err error
		if specs, err = scenario.LoadDir(*scenarioDir); err != nil {
			fmt.Fprintf(stderr, "plumserve: -scenario-dir: %v\n", err)
			return 1
		}
	}

	fmt.Fprintln(stderr, "plumserve: building the experiment harness (global mesh + dual graph)...")
	exp := core.NewExperiments(*paper)

	if *oneshot {
		return runOneshot(exp, specs, *chaos, stdin, stdout, stderr)
	}

	srv, err := serve.NewServer(exp, serve.Config{
		CacheDir:       *cacheDir,
		Workers:        *workers,
		Queue:          *queue,
		DefaultTimeout: *reqTimeout,
		Scenarios:      specs,
		Chaos:          *chaos,
	})
	if err != nil {
		fmt.Fprintf(stderr, "plumserve: %v\n", err)
		return 1
	}

	// Bind synchronously so a bad address fails before advertising ready.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "plumserve: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stderr, "plumserve: serving /run, /readyz, /metrics, /healthz, /debug/pprof on %s"+
		" (workers=%d, cache=%q, chaos=%v)\n", ln.Addr(), nw, *cacheDir, *chaos)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(stderr, "plumserve: %v: draining (up to %v)...\n", sig, *drainTimeout)
		dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer dcancel()
		if err := srv.Drain(dctx); err != nil {
			fmt.Fprintf(stderr, "plumserve: drain: %v (stragglers cancelled)\n", err)
		}
		httpSrv.Close()
		fmt.Fprintln(stderr, "plumserve: drained")
		return 0
	case err := <-serveErr:
		fmt.Fprintf(stderr, "plumserve: %v\n", err)
		return 1
	}
}

// runOneshot is the offline replay: the same request decode, the same
// world runner, the same body rendering as the daemon — minus the
// daemon.  A served 200 body and the oneshot output of the same request
// are byte-identical; the chaos harness asserts exactly that.
func runOneshot(exp *core.Experiments, specs []*scenario.Spec, chaos bool, stdin io.Reader, stdout, stderr io.Writer) int {
	req, err := serve.ParseRequest(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "plumserve: -oneshot: bad request: %v\n", err)
		return 2
	}
	if req.Chaos != "" && !chaos {
		fmt.Fprintln(stderr, "plumserve: -oneshot: chaos requests need -chaos")
		return 2
	}
	ws, err := req.Spec(specs)
	if err != nil {
		fmt.Fprintf(stderr, "plumserve: -oneshot: bad request: %v\n", err)
		return 2
	}
	var rows []serve.Row
	run, err := exp.RunWorldCtx(context.Background(), ws, func(ep core.FeedbackEpoch) {
		rows = append(rows, serve.RowFromEpoch(ep))
	})
	if err != nil {
		fmt.Fprintf(stderr, "plumserve: -oneshot: %v\n", err)
		return 1
	}
	stdout.Write(serve.RenderBody(rows, run.SimTime, req.Digest()))
	return 0
}
