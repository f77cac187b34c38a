// Command smishbench is smishkit's benchmark. One command runs one of
// three workloads and prints every end-to-end metric by name with its
// unit and sample count, or, with --trace 1, a traced run that times
// every layer through its public functions. The last line of standard
// output is a JSON object: correct, attempted, failed and metrics.
//
// Usage (from the repository root; smishbench/run.sh builds and runs it):
//
//	smishbench --workload study_batch|ingest_saturate|ingest_query_mix \
//	    --seed N --seconds S --trace 0|1 [--out DIR]
//
// See smishbench/README.md for the workloads, metrics and layer map.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string
}

func main() {
	var (
		cfg       runConfig
		seconds   int
		trace     int
		daemon    bool
		traced    bool
		setupOnly bool
		dataDir   string
	)
	flag.StringVar(&cfg.workload, "workload", "", "study_batch, ingest_saturate or ingest_query_mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the timed run")
	flag.StringVar(&cfg.out, "out", ".bench_build/smishbench", "directory for data dirs and span traces")
	flag.BoolVar(&daemon, "daemon", false, "internal: run the daemon under test")
	flag.BoolVar(&traced, "traced", false, "internal: with -daemon, drive the layers with spans")
	flag.BoolVar(&setupOnly, "setup-only", false, "internal: with -daemon, exit after round 1")
	flag.StringVar(&dataDir, "data-dir", "", "internal: the daemon's data dir")
	flag.Parse()

	if daemon {
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
		defer stop()
		run := func() error { return runDaemon(ctx, cfg.seed, dataDir, setupOnly) }
		if traced {
			run = func() error { return runTracedDaemon(ctx, cfg.seed, dataDir) }
		}
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "smishbench daemon: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "smishbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "smishbench: %v\n", err)
		os.Exit(1)
	}
	o, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smishbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	if err := o.report(os.Stdout, cfg.workload, specs); err != nil {
		fmt.Fprintf(os.Stderr, "smishbench: %v\n", err)
		os.Exit(1)
	}
	if len(o.checks) > 0 {
		os.Exit(3)
	}
}

func runWorkload(ctx context.Context, cfg runConfig) (*outcome, error) {
	switch cfg.workload {
	case "study_batch":
		o, ref, err := studyBatch(ctx, cfg)
		if err != nil || !cfg.trace {
			return o, err
		}
		return tracedStudy(ctx, cfg, ref)
	case "ingest_saturate", "ingest_query_mix":
		p := saturateParams
		if cfg.workload == "ingest_query_mix" {
			p = mixParams
		}
		if cfg.trace {
			return ingestTraced(ctx, cfg, p)
		}
		o, _, _, err := ingestUntraced(ctx, cfg, p, setupRepeats)
		return o, err
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
}
