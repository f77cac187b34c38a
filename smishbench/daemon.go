package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/smishkit/smishkit"
	"github.com/smishkit/smishkit/internal/checkpoint"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/recordlog"
	"github.com/smishkit/smishkit/internal/report"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Daemon settings shared by both ingest workloads.
const (
	daemonMessages = 2000
	pollInterval   = 250 * time.Millisecond
)

// daemonOptions is the configuration under test plus the service and
// durability settings of the ingest workloads.
func daemonOptions(seed int64, dataDir string) (smishkit.Options, error) {
	opts := benchOptions(seed, daemonMessages)
	opts.Pipeline.Streaming = true
	store, err := smishkit.NewFileCheckpoints(filepath.Join(dataDir, "checkpoints"))
	if err != nil {
		return opts, err
	}
	opts.Service = &smishkit.ServiceConfig{PollInterval: pollInterval, Checkpoints: store}
	opts.Durability = &smishkit.DurabilityConfig{Dir: filepath.Join(dataDir, "records")}
	return opts, nil
}

// readyLine is what a daemon prints on stdout once round 1 over the seed
// world has committed.
type readyLine struct {
	URL    string  `json:"url"`
	SetupS float64 `json:"setup_s"`
}

// daemonResult is what a daemon writes to <data-dir>/result.json after a
// clean shutdown.
type daemonResult struct {
	Digest      string             `json:"digest"`
	RecordIDs   []string           `json:"record_ids"`
	Visible     map[string]int64   `json:"visible_unix_ns"` // injected record -> when it became queryable
	Summary     string             `json:"fresh_summary"`
	Layer       map[string]float64 `json:"layer,omitempty"`
	LayerN      map[string]int     `json:"layer_n,omitempty"`
	LayerQ      map[string]float64 `json:"layer_q,omitempty"`
	TracedNotes []string           `json:"notes,omitempty"`
}

// runDaemon is the benchmark-owned daemon: NewStudy + Serve under the
// configuration under test, stopped by ctx (SIGTERM).
func runDaemon(ctx context.Context, seed int64, dataDir string, setupOnly bool) error {
	opts, err := daemonOptions(seed, dataDir)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	opts.Collector = smishkit.NewCollector()
	clock := newMergeClock(opts.Collector)
	var t0 time.Time
	var url string
	opts.Service.OnReady = func(u string) { url = u }
	opts.Service.OnRound = func(info smishkit.RoundInfo) {
		clock.onRound(info)
		if info.Round != 1 {
			return
		}
		if info.Err != nil {
			fmt.Fprintf(os.Stderr, "daemon: round 1: %v\n", info.Err)
			cancel()
			return
		}
		announce(readyLine{URL: url, SetupS: time.Since(t0).Seconds()})
		if setupOnly {
			cancel()
		}
	}
	t0 = time.Now()
	st, err := smishkit.NewStudy(opts)
	if err != nil {
		return err
	}
	defer st.Close()
	watchCtx, stopWatch := context.WithCancel(context.Background())
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		clock.watch(watchCtx)
	}()
	ds, err := st.Serve(ctx)
	stopWatch()
	<-watched
	if err != nil {
		return err
	}
	if setupOnly {
		return nil
	}
	res, err := resultOf(ds)
	if err != nil {
		return err
	}
	if res.Visible, err = clock.visible(ds); err != nil {
		return err
	}
	return writeResult(dataDir, res)
}

// mergeClock learns, from outside Serve, when each record became
// queryable. The projection bumps projection.batches once its query view
// holds a batch, and merges batches in submit order; OnRound, called after
// each round's submit, sizes that round's batch from the annotate and
// dedup counters. The dataset Serve returns lists records in merge order,
// so record i belongs to the batch whose cumulative size first exceeds i.
type mergeClock struct {
	batches, annotated, deduped *telemetry.Counter

	mu               sync.Mutex
	merged           []time.Time // merged[b]: when batch b was seen merged
	sizes            []int       // sizes[b]: records in batch b
	lastAnn, lastDed int64
}

func newMergeClock(reg *smishkit.Collector) *mergeClock {
	return &mergeClock{
		batches:   reg.Counter("projection.batches"),
		annotated: reg.Counter("pipeline.annotate.records"),
		deduped:   reg.Counter("recordlog.deduped"),
	}
}

// onRound records the size of the batch the round submitted, if any.
func (m *mergeClock) onRound(info smishkit.RoundInfo) {
	ann, ded := m.annotated.Value(), m.deduped.Value()
	m.mu.Lock()
	defer m.mu.Unlock()
	if info.NewReports > 0 {
		m.sizes = append(m.sizes, int((ann-m.lastAnn)-(ded-m.lastDed)))
	}
	m.lastAnn, m.lastDed = ann, ded
}

// mergePoll is how often watch reads the merged-batch counter; it bounds
// how late a merge is stamped, at under 3% of the ingest latency p50.
const mergePoll = 5 * time.Millisecond

// watch stamps every batch merge until ctx ends, then once more.
func (m *mergeClock) watch(ctx context.Context) {
	tick := time.NewTicker(mergePoll)
	defer tick.Stop()
	for {
		now := time.Now()
		v := int(m.batches.Value())
		m.mu.Lock()
		for len(m.merged) < v {
			m.merged = append(m.merged, now)
		}
		m.mu.Unlock()
		select {
		case <-ctx.Done():
			if int(m.batches.Value()) == v {
				return
			}
		case <-tick.C:
		}
	}
}

// visible maps every injected record of ds to when it became queryable.
func (m *mergeClock) visible(ds *core.Dataset) (map[string]int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0
	for _, n := range m.sizes {
		total += n
	}
	if total != len(ds.Records) || len(m.merged) < len(m.sizes) {
		return nil, fmt.Errorf("merge clock: %d batches of %d records seen, %d merges stamped, dataset has %d records",
			len(m.sizes), total, len(m.merged), len(ds.Records))
	}
	out := map[string]int64{}
	b, end := 0, 0
	for i, r := range ds.Records {
		for i >= end {
			end += m.sizes[b]
			b++
		}
		if _, ok := injectedWave(r.ID); ok {
			out[r.ID] = m.merged[b-1].UnixNano()
		}
	}
	return out, nil
}

func announce(r readyLine) {
	b, _ := json.Marshal(r) // a struct of a string and a float always encodes
	fmt.Printf("%s\n", b)
}

// resultOf summarizes the dataset Serve returned.
func resultOf(ds *core.Dataset) (*daemonResult, error) {
	digest, err := datasetDigest(ds)
	if err != nil {
		return nil, err
	}
	res := &daemonResult{Digest: digest, Summary: string(freshSummary(ds))}
	for _, r := range ds.Records {
		res.RecordIDs = append(res.RecordIDs, r.ID)
	}
	sort.Strings(res.RecordIDs)
	return res, nil
}

func writeResult(dataDir string, res *daemonResult) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode daemon result: %w", err)
	}
	return os.WriteFile(filepath.Join(dataDir, "result.json"), b, 0o644)
}

// tracedState is what the traced daemon's /status serves: the fields of
// smishkit.ServiceStats the load generator reads.
type tracedState struct {
	mu      sync.Mutex
	rounds  int
	reports int
}

// runTracedDaemon drives the layers of Study.Serve itself, in Serve's
// order, with a span around every public call: collect each forum, then
// curate, enrich and annotate (the barrier stages: streaming hides the
// stage boundaries), append to the record log, merge into the projection,
// and save each cursor. It serves the same HTTP surface the generator
// uses, so the same inputs drive it.
func runTracedDaemon(ctx context.Context, seed int64, dataDir string) error {
	t := newTracer()
	reg := telemetry.NewRegistry()
	opts := benchOptions(seed, daemonMessages)
	t0 := time.Now()
	rlog, err := recordlog.Open(recordlog.Config{Dir: filepath.Join(dataDir, "records")}, reg)
	if err != nil {
		return fmt.Errorf("open record log: %w", err)
	}
	defer rlog.Close()
	w := corpus.Generate(corpus.Config{Seed: opts.Seed, Messages: opts.Messages})
	sim, err := core.StartSimulationCfg(w, reg, core.SimConfig{})
	if err != nil {
		return fmt.Errorf("start simulation: %w", err)
	}
	defer sim.Close()
	pipe, err := tracedPipeline(t, opts, sim, reg)
	if err != nil {
		return fmt.Errorf("build traced pipeline: %w", err)
	}
	store, err := checkpoint.NewFileStore(filepath.Join(dataDir, "checkpoints"))
	if err != nil {
		return err
	}
	proj := report.NewProjection(reg, 0)
	defer proj.Close()
	state := &tracedState{}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(rw http.ResponseWriter, r *http.Request) {
		ps := proj.Stats()
		state.mu.Lock()
		body := map[string]any{
			"rounds": state.rounds, "reports": state.reports, "records": ps.Records,
			"pending_batches": ps.Pending, "backlog_seconds": ps.BacklogSeconds,
		}
		state.mu.Unlock()
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(body)
	})
	mux.Handle("GET /query/reports", proj.Query().ReportsHandler())
	mux.Handle("GET /query/summary", proj.Query().SummaryHandler())
	injections := 0
	var injectMu sync.Mutex
	mux.HandleFunc("POST /inject", func(rw http.ResponseWriter, r *http.Request) {
		var spec core.InjectSpec
		if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20)).Decode(&spec); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		injectMu.Lock()
		injections++
		_, sp := t.begin(r.Context(), "sim.inject", injections)
		err := rlog.AppendInject(spec, time.Now())
		n := 0
		if err == nil {
			n, err = sim.Inject(spec)
		}
		sp.endN(n, err)
		injectMu.Unlock()
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, "{\n  \"appended_posts\": %d\n}\n", n)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("bind status endpoint: %w", err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	url := "http://" + ln.Addr().String()

	var collectors []forum.IncrementalCollector
	for _, c := range sim.Collectors() {
		ic, ok := c.(forum.IncrementalCollector)
		if !ok {
			return fmt.Errorf("collector %s is not incremental", c.Name())
		}
		collectors = append(collectors, ic)
	}
	cursors := map[string]checkpoint.Cursor{}
	visible := map[string]int64{}
	logPath := filepath.Join(dataDir, "records", "records.log")
	var logBytes, loggedRecords int64
	reportsTotal := 0
	mem0 := readMem()

	for round := 1; ; round++ {
		// Like Serve, a round that has collected finishes processing even
		// when ctx is cancelled; only collection stops early.
		rctx, rsp := t.begin(context.WithoutCancel(ctx), "serve.round", round)
		var batch []forum.RawReport
		staged := map[string]checkpoint.Cursor{}
		for i, ic := range collectors {
			src := forum.Sources[i]
			_, sp := t.begin(rctx, "forum.collect", round, src)
			before := len(batch)
			next, err := ic.CollectSince(ctx, cursors[src], func(r forum.RawReport) error {
				batch = append(batch, r)
				return nil
			})
			sp.endN(len(batch)-before, err)
			if err != nil {
				if ctx.Err() != nil {
					break
				}
				return fmt.Errorf("collect %s: %w", src, err)
			}
			staged[src] = next
		}
		if ctx.Err() != nil {
			rsp.end(ctx.Err())
			break
		}
		if len(batch) > 0 {
			collectedAt := time.Now()
			ds, err := tracedStages(rctx, t, pipe, batch, round)
			if err != nil {
				return err
			}
			compactions := rlog.Stats().Compactions
			size0 := fileSize(logPath)
			_, sp := t.begin(rctx, "recordlog.append", round)
			ds, err = rlog.Append(ds, collectedAt)
			sp.endN(len(batch), err)
			if err != nil {
				return fmt.Errorf("append record log: %w", err)
			}
			if rlog.Stats().Compactions == compactions {
				logBytes += fileSize(logPath) - size0
				loggedRecords += int64(len(ds.Records))
			}
			if err := tracedMerge(rctx, t, proj, ds, round); err != nil {
				return err
			}
			at := time.Now().UnixNano()
			for _, r := range ds.Records {
				if _, ok := injectedWave(r.ID); ok {
					visible[r.ID] = at
				}
			}
		}
		for _, src := range forum.Sources {
			cur, ok := staged[src]
			if !ok {
				continue
			}
			_, sp := t.begin(rctx, "checkpoint.save", round, src)
			err := store.Save(cur)
			sp.end(err)
			if err != nil {
				return fmt.Errorf("save checkpoint %s: %w", src, err)
			}
			cursors[src] = cur
		}
		rsp.endN(len(batch), nil)
		reportsTotal += len(batch)
		state.mu.Lock()
		state.rounds = round
		state.reports = reportsTotal
		state.mu.Unlock()
		if round == 1 {
			announce(readyLine{URL: url, SetupS: time.Since(t0).Seconds()})
		}
		select {
		case <-ctx.Done():
		case <-time.After(pollInterval):
		}
		if ctx.Err() != nil {
			break
		}
	}
	if err := rlog.Snapshot(); err != nil {
		return fmt.Errorf("final record-log snapshot: %w", err)
	}
	mem1 := readMem()
	ds := proj.Dataset()
	finalQueries(context.Background(), t, proj.Query())

	res, err := resultOf(ds)
	if err != nil {
		return err
	}
	res.Visible = visible
	o := newOutcome()
	posts := forum.BuildFixtures(w).Len() + sim.InjectedPosts()
	layerMetrics(o, indexSpans(t.all()), reg.Snapshot(), layerInputs{
		records: len(ds.Records), reports: reportsTotal, posts: posts,
		logBytes: logBytes, loggedRecords: loggedRecords, mem0: mem0, mem1: mem1,
	})
	res.Layer, res.LayerN, res.LayerQ = map[string]float64{}, map[string]int{}, map[string]float64{}
	for name, m := range o.values {
		res.Layer[name], res.LayerN[name], res.LayerQ[name] = m.value, m.n, m.quantile
	}
	path := filepath.Join(dataDir, "trace.jsonl")
	if err := t.write(path); err != nil {
		return err
	}
	res.TracedNotes = append(res.TracedNotes, fmt.Sprintf("span trace: %s (%d spans)", path, len(t.all())))
	return writeResult(dataDir, res)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
