package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
)

func series(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // descending, so the function must sort
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if v, ok := percentile(series(200), 0.95); !ok || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190 with 10 beyond", v, ok)
	}
	if _, ok := percentile(series(199), 0.95); ok {
		t.Fatal("p95 of 199 samples has only 9 beyond it, yet was reported")
	}
	if _, ok := percentile(series(1000), 0.99); !ok {
		t.Fatal("p99 of 1000 samples has 10 beyond it, yet was refused")
	}
	if _, ok := percentile(series(999), 0.99); ok {
		t.Fatal("p99 of 999 samples was reported")
	}
}

func TestTailFallsBackToTheHighestSupportedPercentile(t *testing.T) {
	v, q := tail(series(100), 0.95)
	if q != 0.9 || v != 90 {
		t.Fatalf("tail(1..100, .95) = %v at q=%v; want 90 at q=0.9 (10 beyond)", v, q)
	}
	if v, q := tail(series(12), 0.95); q != 0.5 || v != 6 {
		t.Fatalf("tail(1..12, .95) = %v at q=%v; want the median", v, q)
	}
	if v, q := tail(series(400), 0.95); q != 0.95 || v != 380 {
		t.Fatalf("tail(1..400, .95) = %v at q=%v; want 380 at .95", v, q)
	}
}

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 40}, // overlaps the next one: 10..60 counts once
		{30, 60},
		{50, 55},   // inside the union already
		{90, 120},  // clipped to the parent: 10 more
		{-20, 5},   // clipped: 5 more
		{200, 300}, // outside the parent
	}
	if got := selfTime(parent, children); got != 100-50-10-5 {
		t.Fatalf("selfTime = %d, want 35", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
}

func TestLatencyCountsFromDueTimeWhenTheGeneratorRunsLate(t *testing.T) {
	due := time.Unix(1000, 0)
	item := scheduled{due: due, sent: due.Add(50 * time.Millisecond), done: due.Add(70 * time.Millisecond)}
	if got := item.latency(); got != 70*time.Millisecond {
		t.Fatalf("latency = %v, want 70ms: the 50ms the generator lagged counts", got)
	}
	if got := item.late(); got != 50*time.Millisecond {
		t.Fatalf("late = %v, want 50ms", got)
	}
	early := scheduled{due: due, sent: due.Add(-time.Millisecond), done: due.Add(time.Millisecond)}
	if got := early.late(); got != 0 {
		t.Fatalf("an item sent before its due time is %v late, want 0", got)
	}
}

// One round collected forum by forum can hold part of a wave: the wave
// is queryable only when the batch holding its last record has merged.
func TestWaveLatencyWaitsForTheLastPartOfASplitWave(t *testing.T) {
	t0 := time.Unix(2000, 0)
	clock := &mergeClock{
		sizes:  []int{3, 2},
		merged: []time.Time{t0.Add(100 * time.Millisecond), t0.Add(400 * time.Millisecond)},
	}
	ds := &core.Dataset{Records: []core.Record{
		{ID: "seed-1"}, {ID: "inj1-tw-1"}, {ID: "inj2-tw-1"}, // batch 1
		{ID: "inj1-pb-1"}, {ID: "inj2-pb-1"}, // batch 2: the rest of both waves
	}}
	ns, err := clock.visible(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ns["seed-1"]; ok {
		t.Fatal("seed-world record was timed as injected")
	}
	visible := map[string]time.Time{}
	for id, v := range ns {
		visible[id] = time.Unix(0, v)
	}
	due := map[int]time.Time{1: t0, 2: t0.Add(50 * time.Millisecond), 3: t0}
	records := map[int][]string{1: {"inj1-tw-1", "inj1-pb-1"}, 2: {"inj2-tw-1", "inj2-pb-1"}}
	lat, missing := waveLatencies(due, records, visible)
	if lat[1] != 400*time.Millisecond || lat[2] != 350*time.Millisecond {
		t.Fatalf("latencies = %v; want wave 1 400ms and wave 2 350ms, set by the second batch", lat)
	}
	if len(missing) != 1 || missing[0] != 3 {
		t.Fatalf("missing = %v; want wave 3, which has no records", missing)
	}
	delete(visible, "inj2-pb-1")
	if _, missing := waveLatencies(due, records, visible); len(missing) != 2 {
		t.Fatalf("a wave with an unseen record must count as missing, got %v", missing)
	}
}

func TestMergeClockRejectsABatchSizeMismatch(t *testing.T) {
	clock := &mergeClock{sizes: []int{2}, merged: []time.Time{time.Unix(1, 0)}}
	if _, err := clock.visible(&core.Dataset{Records: make([]core.Record, 3)}); err == nil {
		t.Fatal("3 records in one batch of 2 must be an error, not a guess")
	}
}

func TestInjectedWave(t *testing.T) {
	for id, want := range map[string]int{"inj7-tw-123": 7, "inj12-x": 12, "tw-1": 0, "injx-1": 0, "inj3": 0} {
		if got, _ := injectedWave(id); got != want {
			t.Errorf("injectedWave(%q) = %d, want %d", id, got, want)
		}
	}
}

// BENCHMARK.json at the repository root must declare exactly the metrics
// the command prints, with the same units.
func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command prints %d", len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the command prints %s [%s]", i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}

// The configuration under test is what the benchmark documents.
func TestBenchOptions(t *testing.T) {
	o := benchOptions(3, 10)
	if o.Cache == nil || !o.Cache.ServeStale || o.Batch == nil || o.Resilience == nil || o.Faults != nil || o.Shards != nil {
		t.Fatalf("benchOptions = %+v", o)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := daemonOptions(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Pipeline.Streaming || d.Service.PollInterval != 250*time.Millisecond || d.Durability == nil {
		t.Fatalf("daemonOptions = %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}
