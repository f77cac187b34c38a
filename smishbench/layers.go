package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"github.com/smishkit/smishkit"
	"github.com/smishkit/smishkit/internal/batchmux"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/enrichcache"
	"github.com/smishkit/smishkit/internal/report"
	"github.com/smishkit/smishkit/internal/resilience"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// tracedPipeline composes the tiers the way NewStudy does for an
// unsharded study — client <- batchmux <- enrichcache <- resilience <-
// pipeline — with a timing shim at every boundary. Span names carry the
// tier the shim sits above: "batchmux.*" spans time batchmux and
// everything below it, "client.*" spans time the instrumented client.
func tracedPipeline(t *tracer, opts smishkit.Options, sim *core.Simulation, reg *telemetry.Registry) (*core.Pipeline, error) {
	s := shim(t, "client", sim.Services())
	s = shim(t, "batchmux", batchmux.New(*opts.Batch, reg).WrapServices(s))
	s = shim(t, "enrichcache", enrichcache.New(*opts.Cache, reg).WrapServices(s))
	s = shim(t, "resilience", resilience.New(*opts.Resilience, reg).WrapServices(s))
	popts := opts.Pipeline
	popts.Telemetry = reg
	r := opts.Resilience
	popts.RecordBudget = r.RecordBudget
	popts.CallTimeout = r.CallTimeout
	popts.AbortFailureRate = r.AbortFailureRate
	popts.MinAbortCalls = r.MinAbortCalls
	return core.NewPipeline(s, popts)
}

// datasetDigest hashes the records in ID order, so two runs that land
// records in different orders agree exactly when they hold the same
// records with the same contents.
func datasetDigest(ds *core.Dataset) (string, error) {
	recs := append([]core.Record(nil), ds.Records...)
	sort.Slice(recs, func(a, b int) bool { return recs[a].ID < recs[b].ID })
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return "", fmt.Errorf("digest record %s: %w", r.ID, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// summaryJSON encodes a view's summary byte for byte as GET
// /query/summary does.
func summaryJSON(v *report.QueryView) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v.Summarize(0)) // encoding into a buffer cannot fail
	return buf.Bytes()
}

// freshSummary is the summary of a view built from ds in one batch.
func freshSummary(ds *core.Dataset) []byte {
	v := report.NewQueryView()
	v.Add(ds.Records)
	return summaryJSON(v)
}

// upstreamKeys counts, per service, the keys that reached the upstream
// client. Unlike client.<svc>.calls it does not depend on how batchmux
// windows happened to fill: a flush is one call carrying many keys.
func upstreamKeys(snap telemetry.Snapshot) map[string]int64 {
	out := make(map[string]int64, len(services))
	for _, svc := range services {
		out[svc] = snap.CounterValue("client." + svc + ".calls")
	}
	for _, svc := range batchedServices {
		out[svc] += snap.CounterValue("batch."+svc+".batch_size") - snap.CounterValue("batch."+svc+".flushes")
	}
	return out
}

// memSample is a runtime reading taken before and after the traced work.
type memSample struct{ pauseNs, allocBytes uint64 }

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{pauseNs: m.PauseTotalNs, allocBytes: m.TotalAlloc}
}

// layerInputs carries the counts the per-layer ratios divide by.
type layerInputs struct {
	records int // records the run produced
	reports int // raw reports the collectors returned
	posts   int // posts the forums published
	// logBytes and loggedRecords price the record log (appends without a
	// compaction only).
	logBytes, loggedRecords int64
	mem0, mem1              memSample
}

// batchedMethods maps a method batchmux windows to the bulk call that
// answers it.
var batchedMethods = map[string]string{
	"hlr.Lookup":        "hlr.LookupBatch",
	"dnsdb.Resolutions": "dnsdb.ResolutionsBatch",
	"avscan.Scan":       "avscan.ScanBatch",
	"avscan.GSBLookup":  "avscan.GSBLookupBatch",
}

// layerMetrics turns a trace and the registry it ran against into the
// per-layer metrics.
func layerMetrics(o *outcome, ix *spanIndex, snap telemetry.Snapshot, in layerInputs) {
	per1k := func(totalMS float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return totalMS / float64(n) * 1000
	}

	rounds := ix.named("serve.round")
	rd := spanDurationsMS(rounds)
	o.set("serve.round_p50_ms", median(rd), len(rd))
	o.setTail("serve.round_p95_ms", rd, 0.95)
	busy, reportsIn := 0, 0
	for _, r := range rounds {
		if r.N > 0 {
			busy++
			reportsIn += r.N
		}
	}
	o.set("serve.reports_per_round", ratio(float64(reportsIn), float64(busy)), busy)

	o.set("forum.collect_ms_per_1k_reports", per1k(totalMS(ix.named("forum.collect")), in.reports), in.reports)
	o.set("forum.reports_per_post", ratio(float64(in.reports), float64(in.posts)), in.posts)

	o.set("core.curate_ms_per_1k", per1k(totalMS(ix.named("core.curate")), in.reports), in.reports)
	enrich := ix.named("core.enrich")
	o.set("core.enrich_ms_per_1k", per1k(totalMS(enrich), in.records), in.records)
	var enrichSelf int64
	for _, s := range enrich {
		enrichSelf += selfTime(s.interval(), ix.childIntervals(s.ID))
	}
	o.set("core.enrich_self_ms_per_1k", per1k(float64(enrichSelf)/1e6, in.records), in.records)
	o.set("core.annotate_ms_per_1k", per1k(totalMS(ix.named("core.annotate")), in.records), in.records)
	o.set("core.degraded_records", float64(snap.CounterValue("pipeline.enrich.degraded_records")), in.records)

	res := ix.named("resilience.")
	o.set("resilience.self_ms_per_1k_calls", ix.selfMSPer1k(res, nil), len(res))
	o.set("resilience.short_circuits", float64(sumCounters(snap, "breaker.", ".short_circuits", services)), len(res))

	cache := ix.named("enrichcache.")
	o.set("enrichcache.self_ms_per_1k_calls", ix.selfMSPer1k(cache, nil), len(cache))
	hits := sumCounters(snap, "cache.", ".hits", services)
	misses := sumCounters(snap, "cache.", ".misses", services)
	o.set("enrichcache.hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	o.set("enrichcache.coalesced", float64(sumCounters(snap, "cache.", ".coalesced", services)), int(hits+misses))

	// Batched calls reach the client from whichever goroutine flushed the
	// window, under a detached context; a flush is a child of every
	// caller whose key it carried and whose wait it fell inside.
	bulkByKey := map[string][]span{}
	for _, bulk := range batchedMethods {
		for _, s := range ix.named("client." + bulk) {
			for _, k := range s.Keys {
				id := bulk + "|" + k
				bulkByKey[id] = append(bulkByKey[id], s)
			}
		}
	}
	var mux []span
	for m := range batchedMethods {
		mux = append(mux, ix.named("batchmux."+m)...)
	}
	o.set("batchmux.self_ms_per_1k_calls", ix.selfMSPer1k(mux, func(s span) []interval {
		method := strings.TrimPrefix(s.Name, "batchmux.")
		var out []interval
		for _, k := range s.Keys {
			for _, b := range bulkByKey[batchedMethods[method]+"|"+strings.ToLower(strings.TrimSpace(k))] {
				if b.Start >= s.Start && b.End <= s.End {
					out = append(out, b.interval())
				}
			}
		}
		return out
	}), len(mux))
	flushes := sumCounters(snap, "batch.", ".flushes", batchedServices)
	o.set("batchmux.keys_per_flush", ratio(float64(sumCounters(snap, "batch.", ".batch_size", batchedServices)), float64(flushes)), int(flushes))
	o.set("batchmux.fallthrough", float64(sumCounters(snap, "batch.", ".fallthrough", batchedServices)), len(mux))

	for _, svc := range services {
		calls := snap.CounterValue("client." + svc + ".calls")
		o.set(svc+".calls", float64(calls), int(calls))
		lat := spanDurationsMS(ix.named("client." + svc + "."))
		o.set(svc+".p50_ms", median(lat), len(lat))
		o.set(svc+".errors_per_call", ratio(float64(snap.CounterValue("client."+svc+".errors")), float64(calls)), int(calls))
	}

	app := spanDurationsMS(ix.named("recordlog.append"))
	o.set("recordlog.append_p50_ms", median(app), len(app))
	o.setTail("recordlog.append_p95_ms", app, 0.95)
	o.set("recordlog.snapshots", float64(snap.CounterValue("recordlog.snapshots")), len(app))
	o.set("recordlog.compactions", float64(snap.CounterValue("recordlog.compactions")), len(app))
	o.set("recordlog.bytes_per_record", ratio(float64(in.logBytes), float64(in.loggedRecords)), int(in.loggedRecords))

	merges := ix.named("report.merge")
	merged := 0
	for _, s := range merges {
		merged += s.N
	}
	o.set("report.merge_ms_per_1k", per1k(totalMS(merges), merged), merged)
	sum := spanDurationsMS(ix.named("report.summary"))
	o.set("report.summary_ms", median(sum), len(sum))
	page := spanDurationsMS(ix.named("report.reports_page"))
	o.set("report.reports_page_ms", median(page), len(page))

	saves := spanDurationsMS(ix.named("checkpoint.save"))
	o.setTail("checkpoint.save_p95_ms", saves, 0.95)

	o.set("runtime.gc_pause_total_ms", float64(in.mem1.pauseNs-in.mem0.pauseNs)/1e6, 1)
	o.set("runtime.alloc_mb_per_1k_records", ratio(float64(in.mem1.allocBytes-in.mem0.allocBytes)/(1<<20), float64(in.records)/1000), in.records)
}

func sumCounters(snap telemetry.Snapshot, prefix, suffix string, names []string) int64 {
	var n int64
	for _, name := range names {
		n += snap.CounterValue(prefix + name + suffix)
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
