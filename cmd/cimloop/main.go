// Command cimloop runs the CiMLoop reproduction from the command line:
// list and run paper experiments, inspect macro models, and evaluate
// textual system specifications.
//
// Usage:
//
//	cimloop list
//	cimloop run <experiment|all> [-fast] [-csv] [-mappings N] [-seed N]
//	cimloop macros
//	cimloop spec <file.yaml> [-network NAME] [-mappings N]
//	cimloop serve [-addr :8080] [-workers N] [-mappings N] [-cache N]
//	              [-cache-dir DIR] [-max-body BYTES] [-token-file FILE]
//	cimloop sweeps ls|show|validate|run [...] [-addr URL]
//	cimloop obs slow|metrics [-addr URL]
//
// The subcommands that take -addr are a thin shell over the typed Go SDK
// (internal/client) against the v1 wire contract (internal/serve/api,
// documented in docs/API.md).
//
// -cache-dir enables durable warm starts (package persist): per-layer
// contexts persist across restarts, so a
// restarted server serves repeated requests as cache hits, and a sweep
// re-sent after a restart reruns only its mapping searches.
//
// Observability (see docs/OBSERVABILITY.md): every serve instance
// exposes Prometheus-format metrics at GET /metrics and a slow-request
// ring buffer at GET /v1/debug/slow; `cimloop obs metrics|slow` reads
// both from the command line. -debug-addr starts a SECOND listener
// (loopback recommended) with net/http/pprof plus /metrics and
// /healthz — pprof is never mounted on the public address. A server
// started with -token-file puts every endpoint but /healthz and
// /metrics behind that one bearer token and re-reads the file on
// SIGHUP: the new token is validated first and the previous one is kept
// on any error, so a bad rotation cannot lock out (or open up) a live
// server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	cimloop "repro"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/macros"
	"repro/internal/report"
	"repro/internal/specfile"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cimloop:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return nil
	case "run":
		return runExperiments(args[1:])
	case "macros":
		return listMacros()
	case "spec":
		return runSpec(args[1:])
	case "serve":
		return runServe(args[1:])
	case "sweeps":
		return runSweeps(args[1:])
	case "obs":
		return runObs(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	}
	usage()
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cimloop list                                       list experiments
  cimloop run <experiment|all> [-fast] [-csv] ...    regenerate paper tables/figures
  cimloop macros                                     show macro parameters (Table III)
  cimloop spec <file.yaml> [-network NAME] ...       evaluate a textual specification
  cimloop serve [-addr :8080] [-workers N] [-cache-dir DIR]
                [-token-file FILE] ...               run the batch-evaluation HTTP service
  cimloop sweeps ls [-dir ./sweeps | -addr URL]      list declarative sweep definitions
  cimloop sweeps show <name> [-dir ./sweeps]         show one definition's parameter schema
  cimloop sweeps validate [DIR]                      validate every definition in a directory
  cimloop sweeps run <name> [-p k=v ...] [-dir ./sweeps | -addr URL]
                                                     run a definition offline or on a server
  cimloop obs metrics [-addr URL]                    dump the Prometheus text exposition
  cimloop obs slow [-addr URL] [-limit N] [-json]    show the slowest recent requests
                                                     with per-phase timings`)
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "evaluation goroutines (0 = one per CPU)")
	mappings := fs.Int("mappings", 0, "default per-layer mapping budget (0 = 60)")
	cacheEntries := fs.Int("cache", 0, "layer-context cache entries (0 = default)")
	cacheDir := fs.String("cache-dir", "",
		"directory for durable layer-context warm starts (empty = in-memory only)")
	maxBody := fs.Int64("max-body", 0, "request-body byte bound; larger bodies get 413 (0 = 1 MiB default)")
	tokenFile := fs.String("token-file", "",
		"file holding the one bearer token every /v1 request must carry (empty = open server); SIGHUP reloads it")
	sweepsDir := fs.String("sweeps", "",
		"directory of declarative sweep definitions (sweeps/*.yaml) served at /v1/experiments/{name} (empty = none); SIGHUP reloads it")
	debugAddr := fs.String("debug-addr", "",
		"extra listener with net/http/pprof, /metrics, and /healthz; bind to loopback — pprof is deliberately absent from -addr (empty = off)")
	slowThreshold := fs.Duration("slow-threshold", 0,
		"record only requests at least this slow in /v1/debug/slow (0 = record everything; negative = disable the slow log)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var token string
	if *tokenFile != "" {
		// A requested-but-broken token file must fail at startup: booting
		// an open server where auth was asked for is the worst failure mode.
		var err error
		if token, err = cimloop.LoadTokenFile(*tokenFile); err != nil {
			return err
		}
	}
	// The facade's constructor wires the experiment runner so
	// /v1/experiments can list and regenerate paper artifacts.
	srv := cimloop.NewServer(cimloop.BatchOptions{
		Workers:       *workers,
		MaxMappings:   *mappings,
		CacheEntries:  *cacheEntries,
		CacheDir:      *cacheDir,
		MaxBodyBytes:  *maxBody,
		Token:         token,
		SlowThreshold: *slowThreshold,
	})
	// Requested-but-broken durability should fail loudly at startup, not
	// silently serve cold forever.
	if err := srv.PersistError(); err != nil {
		return err
	}
	if *sweepsDir != "" {
		// Same fail-fast contract as the token and durability: a requested
		// definition directory that does not load (or that shadows a
		// built-in experiment name) stops the boot instead of serving a
		// partial experiment surface.
		if err := srv.ReloadSweepDefsDir(*sweepsDir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cimloop: serving %d sweep definitions from %s\n",
			len(srv.SweepDefNames()), *sweepsDir)
	}
	if ps := srv.PersistStats(); ps.Enabled {
		fmt.Fprintf(os.Stderr, "cimloop: warm start: %d contexts, %d skipped\n",
			ps.Warm.Contexts, ps.Warm.Skipped)
	}
	// SIGINT/SIGTERM drain in flight requests (a sweep still running
	// after the shutdown grace is cancelled) and flush the write-behind
	// persistence queue before exit, so a restarted instance starts warm.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *tokenFile != "" || *sweepsDir != "" {
		// SIGHUP rotates the token and sweep definitions without a
		// restart. Both reloads validate before swapping, so an empty token
		// file or a broken definition logs an error and the running one
		// stays in force.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if *tokenFile != "" {
					if err := srv.ReloadTokenFile(*tokenFile); err != nil {
						fmt.Fprintf(os.Stderr, "cimloop: token reload failed, keeping previous token: %v\n", err)
					} else {
						fmt.Fprintf(os.Stderr, "cimloop: reloaded token file %s\n", *tokenFile)
					}
				}
				if *sweepsDir != "" {
					if err := srv.ReloadSweepDefsDir(*sweepsDir); err != nil {
						fmt.Fprintf(os.Stderr, "cimloop: sweep-definition reload failed, keeping previous set: %v\n", err)
					} else {
						fmt.Fprintf(os.Stderr, "cimloop: reloaded %d sweep definitions from %s\n",
							len(srv.SweepDefNames()), *sweepsDir)
					}
				}
			}
		}()
	}
	if *debugAddr != "" {
		// The debug listener is a separate server on a separate address so
		// pprof's heap and CPU profiles are never one bearer token away from
		// the public API.
		dbg := &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler()}
		go func() {
			fmt.Fprintf(os.Stderr, "cimloop: debug listener (pprof, metrics) on %s\n", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "cimloop: debug listener: %v\n", err)
			}
		}()
		go func() {
			<-ctx.Done()
			dbg.Close()
		}()
	}
	fmt.Fprintf(os.Stderr, "cimloop: serving on %s\n", *addr)
	return srv.ListenAndServeCtx(ctx, *addr)
}

// addrFlag registers the shared -addr flag.
func addrFlag(fs *flag.FlagSet) *string {
	return fs.String("addr", "http://localhost:8080", "base URL of the cimloop serve instance")
}

// tokenFlag registers the shared -token flag (falling back to the
// CIMLOOP_TOKEN environment variable, so the secret can stay out of
// shell history and process listings).
func tokenFlag(fs *flag.FlagSet) *string {
	return fs.String("token", os.Getenv("CIMLOOP_TOKEN"),
		"bearer token for a server started with -token-file (default $CIMLOOP_TOKEN; empty = no auth header)")
}

// newClient builds the SDK client with the shared flags applied.
func newClient(addr, token string) *client.Client {
	var opts []client.Option
	if token != "" {
		opts = append(opts, client.WithToken(token))
	}
	return client.New(addr, opts...)
}

// unaryCtx bounds one-shot calls (listings, metrics) so a hung server
// fails the command instead of wedging it.
func unaryCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

func runExperiments(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fast := fs.Bool("fast", false, "reduced sizes for quick runs")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	mappings := fs.Int("mappings", 0, "mapping search budget (0 = default)")
	seed := fs.Int64("seed", 0, "random seed")
	if len(args) == 0 {
		return fmt.Errorf("run: missing experiment name (try 'cimloop list')")
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	opts := experiments.Options{Fast: *fast, MaxMappings: *mappings, Seed: *seed}
	names := []string{name}
	if name == "all" {
		names = experiments.Names()
	}
	for _, n := range names {
		tables, err := experiments.Run(n, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		for _, t := range tables {
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t.String())
			}
		}
	}
	return nil
}

func listMacros() error {
	t := report.NewTable("Macro models (paper Table III)",
		"macro", "node", "device", "input bits", "weight bits", "array", "ADC bits")
	for _, r := range macros.TableIII() {
		t.AddRow(r.Macro, r.Node, r.Device, r.InputBits, r.WeightBits, r.Array, r.ADCBits)
	}
	fmt.Println(t.String())
	return nil
}

func runSpec(args []string) error {
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	network := fs.String("network", "toy", "workload to evaluate")
	mappings := fs.Int("mappings", 50, "mapping search budget")
	seed := fs.Int64("seed", 0, "random seed")
	if len(args) == 0 {
		return fmt.Errorf("spec: missing file path")
	}
	path := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	arch, err := specfile.Parse(string(text))
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		return err
	}
	net, err := workload.ByName(*network)
	if err != nil {
		return err
	}
	res, err := eng.EvaluateNetworkOptsCtx(context.Background(), net, core.SearchOptions{
		MaxMappings: *mappings, Seed: *seed})
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("%s running %s", arch.Name, net.Name),
		"metric", "value")
	t.AddRow("energy (J)", report.Num(res.Energy))
	t.AddRow("energy/MAC (pJ)", report.Num(res.EnergyPerMAC()*1e12))
	t.AddRow("TOPS/W", report.Num(res.TOPSPerW()))
	t.AddRow("GOPS", report.Num(res.GOPS()))
	t.AddRow("area (mm^2)", report.Num(res.AreaUm2/1e6))
	fmt.Println(t.String())
	return nil
}
