package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/smishkit/smishkit"
)

// benchOptions is the configuration under test, the same for every
// workload: every decorator tier does work, with no faults and no shards.
func benchOptions(seed int64, messages int) smishkit.Options {
	return smishkit.Options{
		Seed:       seed,
		Messages:   messages,
		Cache:      &smishkit.CacheConfig{ServeStale: true},
		Batch:      &smishkit.BatchConfig{},
		Resilience: &smishkit.ResilienceConfig{},
	}
}

// services are the six enrichment services, in telemetry naming.
var services = []string{"hlr", "whois", "ctlog", "dnsdb", "avscan", "shortener"}

// batchedServices are the services batchmux windows.
var batchedServices = []string{"hlr", "dnsdb", "avscan"}

// endToEnd lists the metrics a --trace 0 run prints, with their units.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"study_records_per_s", "records/s"},
	{"ingest_capacity_reports_per_s", "reports/s"},
	{"ingest_latency_p50_s", "s"},
	{"ingest_latency_p95_s", "s"},
	{"query_summary_p50_ms", "ms"},
	{"query_reports_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run prints, with their units.
var perLayer = func() []metricSpec {
	out := []metricSpec{
		{"serve.round_p50_ms", "ms"},
		{"serve.round_p95_ms", "ms"},
		{"serve.reports_per_round", "reports"},
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.inject_p50_ms", "ms"},
		{"forum.collect_ms_per_1k_reports", "ms"},
		{"forum.reports_per_post", "ratio"},
		{"core.curate_ms_per_1k", "ms"},
		{"core.enrich_ms_per_1k", "ms"},
		{"core.enrich_self_ms_per_1k", "ms"},
		{"core.annotate_ms_per_1k", "ms"},
		{"core.degraded_records", "count"},
		{"resilience.self_ms_per_1k_calls", "ms"},
		{"resilience.short_circuits", "count"},
		{"enrichcache.self_ms_per_1k_calls", "ms"},
		{"enrichcache.hit_ratio", "ratio"},
		{"enrichcache.coalesced", "count"},
		{"batchmux.self_ms_per_1k_calls", "ms"},
		{"batchmux.keys_per_flush", "keys"},
		{"batchmux.fallthrough", "count"},
	}
	for _, svc := range services {
		out = append(out,
			metricSpec{svc + ".calls", "count"},
			metricSpec{svc + ".p50_ms", "ms"},
			metricSpec{svc + ".errors_per_call", "ratio"})
	}
	return append(out,
		metricSpec{"recordlog.append_p50_ms", "ms"},
		metricSpec{"recordlog.append_p95_ms", "ms"},
		metricSpec{"recordlog.snapshots", "count"},
		metricSpec{"recordlog.compactions", "count"},
		metricSpec{"recordlog.bytes_per_record", "B"},
		metricSpec{"report.merge_ms_per_1k", "ms"},
		metricSpec{"report.backlog_p95_s", "s"},
		metricSpec{"report.summary_ms", "ms"},
		metricSpec{"report.reports_page_ms", "ms"},
		metricSpec{"query.summary_p95_ms", "ms"},
		metricSpec{"query.reports_p95_ms", "ms"},
		metricSpec{"checkpoint.save_p95_ms", "ms"},
		metricSpec{"runtime.gc_pause_total_ms", "ms"},
		metricSpec{"runtime.alloc_mb_per_1k_records", "MB"},
		metricSpec{"trace.overhead_pct", "%"},
	)
}()

type metricSpec struct{ name, unit string }

// measured is one metric value with the sample it came from. Quantile is
// the percentile actually reported when the sample was too small for the
// named one (0 when it is not a percentile or the named one held).
type measured struct {
	value    float64
	n        int
	quantile float64
}

// outcome is what one benchmark run reports.
type outcome struct {
	checks    []string // failed output checks
	attempted int
	failed    int
	values    map[string]measured
	notes     []string
}

func newOutcome() *outcome { return &outcome{values: map[string]measured{}} }

func (o *outcome) set(name string, v float64, n int) { o.values[name] = measured{value: v, n: n} }

// setTail records the q-quantile of samples under name, falling back to
// the highest quantile the sample supports.
func (o *outcome) setTail(name string, samples []float64, q float64) {
	v, used := tail(samples, q)
	m := measured{value: v, n: len(samples)}
	if used != q {
		m.quantile = used
	}
	o.values[name] = m
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// copyValues carries measured values from another run's outcome.
func (o *outcome) copyValues(from *outcome, names ...string) {
	for _, name := range names {
		if m, ok := from.values[name]; ok {
			o.values[name] = m
		}
	}
}

// report prints a human-readable table, then the result as the last line
// of w: one JSON object with the metrics of specs.
func (o *outcome) report(w io.Writer, workload string, specs []metricSpec) error {
	fmt.Fprintf(w, "workload %s: ops=%d ops_failed=%d\n", workload, o.attempted, o.failed)
	for _, s := range specs {
		m, ok := o.values[s.name]
		if !ok {
			o.check(false, "metric %s was not measured", s.name)
			continue
		}
		extra := ""
		if m.quantile != 0 {
			extra = fmt.Sprintf(" (sample too small for the named percentile: p%s reported)", strconv.FormatFloat(m.quantile*100, 'f', 1, 64))
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-10s n=%d%s\n", s.name, m.value, s.unit, m.n, extra)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range o.checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
	// The result line holds only value and unit per metric; the sample
	// size and any fallback percentile are in the table above.
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricOut, len(specs))
	for _, s := range specs {
		if m, ok := o.values[s.name]; ok {
			v := m.value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				o.check(false, "metric %s is not a finite number", s.name)
				v = 0
			}
			metrics[s.name] = metricOut{Value: v, Unit: s.unit}
		}
	}
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(o.checks) == 0, attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// peakRSSMB reads a process's VmHWM (peak resident set) in MB from its
// /proc status file.
func peakRSSMB(statusPath string) (float64, error) {
	raw, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", statusPath, err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}
