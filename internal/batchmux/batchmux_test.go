package batchmux

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// flight is one bulk call held open by a gated backend: the test reads its
// keys and closes release to let it land.
type flight struct {
	keys    []string
	release chan struct{}
}

// recordingBulk is a bulk backend that logs every batch it receives and
// answers each key with "v:<key>". With started set, every call announces
// itself there and blocks until the test releases it, so a test can hold
// a flight in the air for as long as it likes without sleeping.
type recordingBulk struct {
	mu      sync.Mutex
	batches [][]string
	errFor  map[string]error // keys answered with an error instead
	short   bool             // answer one slot fewer than asked
	started chan flight      // nil: calls land at once
}

func (r *recordingBulk) call(_ context.Context, keys []string) ([]string, []error) {
	r.mu.Lock()
	r.batches = append(r.batches, append([]string(nil), keys...))
	r.mu.Unlock()
	if r.started != nil {
		f := flight{keys: append([]string(nil), keys...), release: make(chan struct{})}
		r.started <- f
		<-f.release
	}
	vals := make([]string, len(keys))
	errs := make([]error, len(keys))
	for i, k := range keys {
		if err := r.errFor[k]; err != nil {
			errs[i] = err
			continue
		}
		vals[i] = "v:" + k
	}
	if r.short && len(vals) > 0 {
		vals = vals[:len(vals)-1]
		errs = errs[:len(errs)-1]
	}
	return vals, errs
}

func (r *recordingBulk) batchCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.batches)
}

func gatedBulk() *recordingBulk { return &recordingBulk{started: make(chan flight)} }

func testBatcher(t *testing.T, sc ServiceConfig, reg *telemetry.Registry, bulk *recordingBulk) *batcher[string] {
	t.Helper()
	return newBatcher(sc, time.Second, nil, newMetrics(reg, "test"), bulk.call)
}

// concurrentGets issues one get per key from its own goroutine and returns
// the values and errors in key order.
func concurrentGets(ctx context.Context, b *batcher[string], keys []string) ([]string, []error) {
	vals := make([]string, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], errs[i] = b.get(ctx, k)
		}()
	}
	wg.Wait()
	return vals, errs
}

// result is one get's answer, delivered on a channel.
type result struct {
	val string
	err error
}

// goGet runs one get in the background and returns where its answer lands.
func goGet(ctx context.Context, b *batcher[string], key string) <-chan result {
	out := make(chan result, 1)
	go func() {
		v, err := b.get(ctx, key)
		out <- result{v, err}
	}()
	return out
}

// nextFlight waits for a gated backend's next call.
func nextFlight(t *testing.T, started <-chan flight) flight {
	t.Helper()
	select {
	case f := <-started:
		sort.Strings(f.keys)
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no flight took off")
		return flight{}
	}
}

// awaitParked spins until the pending window holds keys distinct keys.
// Only a get parking its key can move the count, so reaching it is the
// synchronization point; the deadline only turns a hang into a failure.
func awaitParked(t *testing.T, b *batcher[string], keys int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		b.mu.Lock()
		n := 0
		if b.pending != nil {
			n = len(b.pending.keys)
		}
		b.mu.Unlock()
		if n == keys {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending window holds %d keys, want %d", n, keys)
		}
	}
}

// awaitCounter spins until the named counter reaches want.
func awaitCounter(t *testing.T, reg *telemetry.Registry, name string, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); reg.Snapshot().Counters[name] != want; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, reg.Snapshot().Counters[name], want)
		}
	}
}

func expect(t *testing.T, ch <-chan result, want string) {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil || r.val != want {
			t.Errorf("get = (%q, %v), want (%q, nil)", r.val, r.err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("get for %q never returned", want)
	}
}

func TestLoneKeyFlushesWithoutTimer(t *testing.T) {
	t.Parallel()
	bulk := &recordingBulk{}
	reg := telemetry.NewRegistry()
	// The window can never fill, and there is no timer: the lone key must
	// go upstream because nothing else of its key space is in flight.
	b := testBatcher(t, ServiceConfig{Window: 100}, reg, bulk)

	for _, k := range []string{"a", "b"} {
		v, err := b.get(context.Background(), k)
		if err != nil || v != "v:"+k {
			t.Fatalf("get(%q) = (%q, %v), want (v:%s, nil)", k, v, err, k)
		}
	}
	if got := bulk.batchCount(); got != 2 {
		t.Fatalf("bulk called %d times, want one flight per sequential get", got)
	}
	if got := reg.Snapshot().Counters["batch.test.batch_size"]; got != 2 {
		t.Errorf("batch.test.batch_size = %d, want 2", got)
	}
}

func TestWindowFlushesOnSize(t *testing.T) {
	t.Parallel()
	bulk := gatedBulk()
	reg := telemetry.NewRegistry()
	b := testBatcher(t, ServiceConfig{Window: 3}, reg, bulk)

	held := goGet(context.Background(), b, "x")
	first := nextFlight(t, bulk.started)
	// With x still in the air, the third parked key fills the window and
	// sends it without waiting for x to land.
	a, bb, c := goGet(context.Background(), b, "a"), goGet(context.Background(), b, "b"), goGet(context.Background(), b, "c")
	full := nextFlight(t, bulk.started)
	if !reflect.DeepEqual(full.keys, []string{"a", "b", "c"}) {
		t.Fatalf("full window carried %v, want [a b c]", full.keys)
	}
	close(full.release)
	expect(t, a, "v:a")
	expect(t, bb, "v:b")
	expect(t, c, "v:c")
	close(first.release)
	expect(t, held, "v:x")

	if got := bulk.batchCount(); got != 2 {
		t.Fatalf("bulk called %d times, want 2", got)
	}
	if got := reg.Snapshot().Counters["batch.test.flushes"]; got != 2 {
		t.Errorf("batch.test.flushes = %d, want 2", got)
	}
	if got := reg.Snapshot().Counters["batch.test.batch_size"]; got != 4 {
		t.Errorf("batch.test.batch_size = %d, want 4", got)
	}
}

func TestDuplicateKeysCoalesceInWindow(t *testing.T) {
	t.Parallel()
	bulk := gatedBulk()
	reg := telemetry.NewRegistry()
	b := testBatcher(t, ServiceConfig{Window: 100}, reg, bulk)

	held := goGet(context.Background(), b, "x")
	first := nextFlight(t, bulk.started)
	var parked []<-chan result
	for _, k := range []string{"a", "a", "a", "b"} {
		parked = append(parked, goGet(context.Background(), b, k))
	}
	awaitParked(t, b, 2)
	awaitCounter(t, reg, "batch.test.coalesced", 2)
	close(first.release)
	expect(t, held, "v:x")

	// Everything parked behind x rides exactly one follow-up flight.
	next := nextFlight(t, bulk.started)
	if !reflect.DeepEqual(next.keys, []string{"a", "b"}) {
		t.Fatalf("follow-up flight carried %v, want the 2 distinct keys [a b]", next.keys)
	}
	close(next.release)
	for i, want := range []string{"v:a", "v:a", "v:a", "v:b"} {
		expect(t, parked[i], want)
	}
	if got := bulk.batchCount(); got != 2 {
		t.Fatalf("bulk called %d times, want 2", got)
	}
	if got := reg.Snapshot().Counters["batch.test.batch_size"]; got != 3 {
		t.Errorf("batch.test.batch_size = %d, want 3", got)
	}
}

func TestPerKeyErrorDegradesOneSlot(t *testing.T) {
	t.Parallel()
	boom := errors.New("bad key")
	bulk := &recordingBulk{errFor: map[string]error{"b": boom}}
	b := testBatcher(t, ServiceConfig{Window: 3}, nil, bulk)

	vals, errs := concurrentGets(context.Background(), b, []string{"a", "b", "c"})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy keys failed: %v %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], boom) {
		t.Errorf("bad key error = %v, want %v", errs[1], boom)
	}
	if vals[0] != "v:a" || vals[2] != "v:c" {
		t.Errorf("healthy keys got (%q, %q), want (v:a, v:c)", vals[0], vals[2])
	}
}

func TestShortBulkResultDegradesMissingSlot(t *testing.T) {
	t.Parallel()
	bulk := gatedBulk()
	bulk.short = true
	b := testBatcher(t, ServiceConfig{Window: 100}, nil, bulk)

	held := goGet(context.Background(), b, "x")
	first := nextFlight(t, bulk.started)
	a, bb := goGet(context.Background(), b, "a"), goGet(context.Background(), b, "b")
	awaitParked(t, b, 2)
	close(first.release)
	close(nextFlight(t, bulk.started).release)

	if r := <-held; !errors.Is(r.err, errShape) {
		t.Errorf("lone short flight answered %v, want errShape", r.err)
	}
	var missing, healthy int
	for _, r := range []result{<-a, <-bb} {
		switch {
		case r.err == nil:
			healthy++
		case errors.Is(r.err, errShape):
			missing++
		default:
			t.Fatalf("unexpected error: %v", r.err)
		}
	}
	if missing != 1 || healthy != 1 {
		t.Errorf("got %d healthy and %d missing slots, want 1 and 1", healthy, missing)
	}
}

func TestGetHonorsContextWhileWaiting(t *testing.T) {
	t.Parallel()
	bulk := gatedBulk()
	reg := telemetry.NewRegistry()
	b := testBatcher(t, ServiceConfig{Window: 100}, reg, bulk)

	// The flight runs on its own goroutine, so even the caller whose key
	// it carries can leave while it hangs.
	xctx, xcancel := context.WithCancel(context.Background())
	x := goGet(xctx, b, "x")
	hung := nextFlight(t, bulk.started)
	actx, acancel := context.WithCancel(context.Background())
	a := goGet(actx, b, "a")
	awaitParked(t, b, 1)
	xcancel()
	acancel()
	for name, ch := range map[string]<-chan result{"flying": x, "queued": a} {
		select {
		case r := <-ch:
			if !errors.Is(r.err, context.Canceled) {
				t.Fatalf("%s get returned %v, want context.Canceled", name, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s get did not return after its context was cancelled", name)
		}
	}

	// The abandoned key still flushes once the hung flight lands.
	close(hung.release)
	next := nextFlight(t, bulk.started)
	if !reflect.DeepEqual(next.keys, []string{"a"}) {
		t.Fatalf("follow-up flight carried %v, want [a]", next.keys)
	}
	close(next.release)
	awaitCounter(t, reg, "batch.test.flushes", 2)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pending != nil || b.flights != 0 {
		t.Errorf("after landing: pending=%v flights=%d, want nil and 0", b.pending, b.flights)
	}
}

// TestStressFlightsOverlappingKeys hammers two batchers sharing one
// in-flight slot from many goroutines over overlapping keys, some callers
// cancelling: every get returns, every answer is its own key's, and the
// flushed-key counter equals the distinct keys the backends saw. A window
// stranded with no flight left to send it shows up as a hung get.
func TestStressFlightsOverlappingKeys(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	sem := make(chan struct{}, 1)
	met := newMetrics(reg, "test")
	bulks := []*recordingBulk{{}, {}}
	var bs []*batcher[string]
	for _, bulk := range bulks {
		bs = append(bs, newBatcher(ServiceConfig{Window: 4}, time.Second, sem, met, bulk.call))
	}

	const workers, rounds, keys = 32, 200, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (w+i)%7 == 0 {
					cancel()
				}
				k := fmt.Sprintf("k%d", (w*31+i*7)%keys)
				v, err := bs[(w+i)%2].get(ctx, k)
				cancel()
				if err == nil && v != "v:"+k {
					t.Errorf("get(%q) = %q", k, v)
				} else if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("get(%q): %v", k, err)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a get never returned: a pending window was stranded")
	}

	// Cancelled callers leave before their flight lands; wait until every
	// batcher is idle before reading the counters.
	for _, b := range bs {
		for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
			b.mu.Lock()
			idle := b.flights == 0 && b.pending == nil
			b.mu.Unlock()
			if idle {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("batcher never went idle")
			}
		}
	}
	var flushed, flights int64
	for _, bulk := range bulks {
		for _, batch := range bulk.batches {
			seen := map[string]bool{}
			for _, k := range batch {
				if seen[k] {
					t.Fatalf("flush %v carried %q twice", batch, k)
				}
				seen[k] = true
			}
			if len(batch) > 4 {
				t.Errorf("flush of %d keys exceeds Window 4", len(batch))
			}
			flushed += int64(len(batch))
		}
		flights += int64(len(bulk.batches))
	}
	snap := reg.Snapshot()
	if got := snap.Counters["batch.test.batch_size"]; got != flushed {
		t.Errorf("batch.test.batch_size = %d, backends saw %d keys", got, flushed)
	}
	if got := snap.Counters["batch.test.flushes"]; got != flights {
		t.Errorf("batch.test.flushes = %d, backends saw %d calls", got, flights)
	}
}

// bulkCapableHLR implements both the per-key and the bulk seam. With
// started set, every bulk call is held open until the test releases it.
type bulkCapableHLR struct {
	calls   atomic.Int64
	started chan flight
}

func (s *bulkCapableHLR) Lookup(context.Context, string) (hlr.Result, error) {
	s.calls.Add(1)
	return hlr.Result{Known: true}, nil
}

func (s *bulkCapableHLR) LookupBatch(_ context.Context, msisdns []string) ([]hlr.Result, []error) {
	s.calls.Add(1)
	if s.started != nil {
		f := flight{keys: append([]string(nil), msisdns...), release: make(chan struct{})}
		s.started <- f
		<-f.release
	}
	out := make([]hlr.Result, len(msisdns))
	for i := range out {
		out[i] = hlr.Result{Known: true, Source: msisdns[i]}
	}
	return out, make([]error, len(msisdns))
}

// perKeyOnlyHLR has no bulk seam, so the mux must fall through.
type perKeyOnlyHLR struct{ calls atomic.Int64 }

func (s *perKeyOnlyHLR) Lookup(context.Context, string) (hlr.Result, error) {
	s.calls.Add(1)
	return hlr.Result{Known: true}, nil
}

func TestMuxBatchesBulkCapableService(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	m := New(Config{Window: 4}, reg)
	backend := &bulkCapableHLR{started: make(chan flight)}
	wrapped := m.HLR(backend)

	lookup := func(wg *sync.WaitGroup, msisdn string) {
		defer wg.Done()
		res, err := wrapped.Lookup(context.Background(), msisdn)
		if err != nil {
			t.Errorf("lookup %s: %v", msisdn, err)
			return
		}
		if res.Source != msisdn {
			t.Errorf("lookup %s answered for key %q", msisdn, res.Source)
		}
	}
	var wg sync.WaitGroup
	wg.Add(5)
	go lookup(&wg, "+447700900100")
	first := nextFlight(t, backend.started)
	// Four lookups behind the held flight fill the window and go out as
	// one bulk call, each answer demultiplexed to its own caller.
	for i := 1; i <= 4; i++ {
		go lookup(&wg, fmt.Sprintf("+4477009001%02d", i))
	}
	full := nextFlight(t, backend.started)
	if len(full.keys) != 4 {
		t.Errorf("full window carried %d keys, want 4", len(full.keys))
	}
	close(full.release)
	close(first.release)
	wg.Wait()
	if got := backend.calls.Load(); got != 2 {
		t.Errorf("backend saw %d calls, want 2 bulk calls", got)
	}
	if got := m.Stats()["hlr"].Flushes; got != 2 {
		t.Errorf("hlr flushes = %d, want 2", got)
	}
	if got := m.Stats()["hlr"].BatchedKeys; got != 5 {
		t.Errorf("hlr batched keys = %d, want 5", got)
	}
}

func TestMuxFallsThroughWithoutBulkSeam(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	m := New(Config{}, reg)
	backend := &perKeyOnlyHLR{}
	wrapped := m.HLR(backend)

	for i := 0; i < 3; i++ {
		if _, err := wrapped.Lookup(context.Background(), "+447700900123"); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if got := backend.calls.Load(); got != 3 {
		t.Errorf("backend saw %d calls, want 3 per-key calls", got)
	}
	st := m.Stats()["hlr"]
	if st.Fallthrough != 3 {
		t.Errorf("fallthrough = %d, want 3", st.Fallthrough)
	}
	if st.Flushes != 0 {
		t.Errorf("flushes = %d, want 0", st.Flushes)
	}
	if got := reg.Snapshot().Counters["batch.hlr.fallthrough"]; got != 3 {
		t.Errorf("batch.hlr.fallthrough = %d, want 3", got)
	}
}

func TestWrapServicesLeavesUnbatchableServicesAlone(t *testing.T) {
	t.Parallel()
	m := New(Config{}, nil)
	s := m.WrapServices(core.Services{HLR: &bulkCapableHLR{}})
	if _, ok := s.HLR.(*batchedHLR); !ok {
		t.Errorf("bulk-capable HLR wrapped as %T, want *batchedHLR", s.HLR)
	}
	if s.Whois != nil || s.DNSDB != nil || s.AVScan != nil || s.Shortener != nil {
		t.Error("WrapServices invented services that were nil")
	}
	s2 := m.WrapServices(core.Services{HLR: &perKeyOnlyHLR{}})
	if _, ok := s2.HLR.(*fallthroughHLR); !ok {
		t.Errorf("per-key HLR wrapped as %T, want *fallthroughHLR", s2.HLR)
	}
}

// The real clients must keep satisfying the bulk seams the mux asserts on;
// a silent regression here would turn every study into fallthrough.
var (
	_ core.BulkHLRLookuper = (*hlr.Client)(nil)
	_ core.BulkDNSResolver = (*dnsdb.Client)(nil)
	_ core.BulkAVScanner   = (*avscan.Client)(nil)
)

func TestWriteRendersAllServices(t *testing.T) {
	t.Parallel()
	stats := Stats{
		"hlr":   {Flushes: 2, BatchedKeys: 10, Coalesced: 3},
		"dnsdb": {Fallthrough: 7},
	}
	var sb strings.Builder
	if err := Write(&sb, stats); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"request batching", "hlr", "dnsdb", "5.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigDefaultsAndOverrides(t *testing.T) {
	t.Parallel()
	c := Config{PerService: map[string]ServiceConfig{"hlr": {Window: 8}}}.withDefaults()
	if c.Window != 32 || c.BatchTimeout != 30*time.Second || c.MaxInFlight != 4 {
		t.Errorf("withDefaults = %+v, want documented defaults", c)
	}
	if sc := c.forService("hlr"); sc.Window != 8 {
		t.Errorf("forService(hlr) = %+v, want window override", sc)
	}
	if sc := c.forService("dnsdb"); sc.Window != 32 {
		t.Errorf("forService(dnsdb).Window = %d, want inherited 32", sc.Window)
	}
}
