package main

import (
	"context"
	"fmt"
	"path/filepath"
)

// setupRepeats is how many daemons a timed ingest run sets up: two that
// exit after round 1 and the one the load runs against. setup_s is their
// median.
const setupRepeats = 3

// ingestUntraced runs one ingest workload against the daemon under test.
func ingestUntraced(ctx context.Context, cfg runConfig, p ingestParams, setups int) (*outcome, *ingestRun, *daemonResult, error) {
	o := newOutcome()
	var setup []float64
	for i := 1; i < setups; i++ {
		d, err := startDaemon(cfg, filepath.Join(cfg.out, fmt.Sprintf("setup-%d", i)), false, true)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := d.wait(); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up daemon exit: %w", err)
		}
		setup = append(setup, d.setupS)
	}
	d, err := startDaemon(cfg, filepath.Join(cfg.out, "daemon"), false, false)
	if err != nil {
		return nil, nil, nil, err
	}
	setup = append(setup, d.setupS)
	r := &ingestRun{p: p, cfg: cfg, d: d, ctl: newClient(), qc: newClient()}
	if err := r.run(ctx); err != nil {
		d.kill()
		return nil, nil, nil, err
	}
	if p.queryRate == 0 {
		// No reads ran during the load: price queries at rest over the
		// final dataset instead.
		if _, err := queryAtRest(ctx, o, r.qc, d.url); err != nil {
			d.kill()
			return nil, nil, nil, err
		}
	} else {
		setQueryMetrics(o, r.sum, r.page)
	}
	res, lat, err := r.finish(ctx, o)
	if err != nil {
		return nil, nil, nil, err
	}
	o.set("setup_s", median(setup), len(setup))
	o.set("ingest_capacity_reports_per_s", r.rate(func(s daemonStatus) int { return s.Reports }), len(r.status))
	o.set("study_records_per_s", r.rate(func(s daemonStatus) int { return s.Records }), len(r.status))
	o.set("ingest_latency_p50_s", median(lat), len(lat))
	o.setTail("ingest_latency_p95_s", lat, 0.95)
	if _, ok := percentile(lat, 0.95); !ok {
		o.check(false, "ingest latency p95 rests on %d waves, fewer than %d", len(lat), 20*minBeyond)
	}
	o.set("peak_rss_mb", r.peakRSS, 1)
	o.note("%d waves injected, %d probes of /status", len(r.waves), len(r.status))
	return o, r, res, nil
}

// ingestTraced runs the workload untraced, then replays the same waves
// against the traced daemon and checks the two agree.
func ingestTraced(ctx context.Context, cfg runConfig, p ingestParams) (*outcome, error) {
	untraced, ref, refRes, err := ingestUntraced(ctx, cfg, p, 1)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	d, err := startDaemon(cfg, filepath.Join(cfg.out, "traced"), true, false)
	if err != nil {
		return nil, err
	}
	r := &ingestRun{p: p, cfg: cfg, d: d, ctl: newClient(), qc: newClient(), replay: len(ref.waves)}
	if err := r.run(ctx); err != nil {
		d.kill()
		return nil, err
	}
	res, lat, err := r.finish(ctx, o)
	if err != nil {
		return nil, err
	}
	for name, v := range res.Layer {
		o.values[name] = measured{value: v, n: res.LayerN[name], quantile: res.LayerQ[name]}
	}
	o.notes = append(o.notes, res.TracedNotes...)

	// The generator's own view comes from the untraced run: the traced
	// daemon merges synchronously, so its backlog says nothing.
	o.setTail("loadgen.late_p99_ms", append(ref.injectLate, ref.queryLate...), 0.99)
	o.set("loadgen.inject_p50_ms", median(ref.injectMS), len(ref.injectMS))
	var backlog []float64
	for _, s := range ref.status {
		if !s.at.Before(ref.start) && !s.at.After(ref.end) {
			backlog = append(backlog, s.st.BacklogSeconds)
		}
	}
	o.setTail("report.backlog_p95_s", backlog, 0.95)
	o.copyValues(untraced, queryTails...)

	if p.closed {
		base := ref.lastRetire.Sub(ref.start).Seconds()
		traced := r.lastRetire.Sub(r.start).Seconds()
		o.set("trace.overhead_pct", 100*(traced-base)/base, len(r.waves))
		o.note("tracing overhead: %d waves took %.3fs traced vs %.3fs untraced", len(r.waves), traced, base)
	} else {
		base, traced := median(ref.lat), median(lat)
		o.set("trace.overhead_pct", 100*(traced-base)/base, len(lat))
		o.note("tracing overhead: ingest latency p50 %.4fs traced vs %.4fs untraced", traced, base)
	}

	o.check(len(r.waves) == len(ref.waves), "traced run injected %d waves, untraced %d", len(r.waves), len(ref.waves))
	o.check(res.Digest == refRes.Digest, "traced dataset differs from the untraced one")
	o.check(string(r.finalSummary) == string(ref.finalSummary), "traced /query/summary differs from the untraced one")
	o.check(res.Layer["batchmux.fallthrough"] == 0, "batchmux fell through: a shim hid a core.Bulk* seam")
	return o, nil
}
