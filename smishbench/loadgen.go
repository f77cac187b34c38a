package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/report"
)

// ingestParams shapes an ingest workload's load.
type ingestParams struct {
	// closed keeps inflight waves outstanding at all times; otherwise
	// waves are due on a fixed schedule at rate messages/s.
	closed   bool
	inflight int
	rate     float64
	// waveMessages is the size of one injected wave.
	waveMessages int
	// seedPool > 0 takes wave seeds round-robin from that many seeds, so
	// most lookups hit the cache; 0 gives every wave a fresh seed.
	seedPool int
	// queryRate > 0 runs the open-loop query stream beside the ingest.
	queryRate float64
}

var (
	saturateParams = ingestParams{closed: true, inflight: 64, waveMessages: 25}
	mixParams      = ingestParams{rate: 200, waveMessages: 10, seedPool: 8, queryRate: 60}
)

// queryPattern is the query stream's repeating mix: two summaries and two
// unfiltered first pages for every domain lookup.
var queryPattern = []string{"summary", "reports", "domain", "summary", "reports"}

const (
	probeEvery    = 25 * time.Millisecond
	drainDeadline = 30 * time.Second
	startTimeout  = 150 * time.Second
	stopTimeout   = 60 * time.Second
)

// daemonProc is a daemon child process that has finished set-up.
type daemonProc struct {
	cmd    *exec.Cmd // the daemon process; its pid names /proc/<pid>/status
	dir    string
	url    string
	setupS float64
}

// startDaemon launches this binary in daemon mode over a fresh data dir
// and waits for its ready line.
func startDaemon(cfg runConfig, dir string, traced, setupOnly bool) (*daemonProc, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-daemon", "-seed", strconv.FormatInt(cfg.seed, 10), "-data-dir", dir}
	if traced {
		args = append(args, "-traced")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the generator, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	lines := make(chan string, 1)
	go func() {
		r := bufio.NewReader(out)
		line, _ := r.ReadString('\n')
		lines <- line
		drain(r)
	}()
	d := &daemonProc{cmd: cmd, dir: dir}
	select {
	case line := <-lines:
		var rl readyLine
		if err := json.Unmarshal([]byte(line), &rl); err != nil || rl.URL == "" {
			d.kill()
			return nil, fmt.Errorf("daemon did not become ready (said %q)", line)
		}
		d.url, d.setupS = rl.URL, rl.SetupS
	case <-time.After(startTimeout):
		d.kill()
		return nil, fmt.Errorf("daemon not ready after %v", startTimeout)
	}
	return d, nil
}

func (d *daemonProc) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// wait waits for the daemon to exit on its own.
func (d *daemonProc) wait() error {
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(stopTimeout):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon did not exit within %v", stopTimeout)
	}
}

// stop shuts the daemon down cleanly and reads its result.
func (d *daemonProc) stop() (*daemonResult, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return nil, err
	}
	if err := d.wait(); err != nil {
		return nil, fmt.Errorf("daemon exit: %w", err)
	}
	raw, err := os.ReadFile(filepath.Join(d.dir, "result.json"))
	if err != nil {
		return nil, fmt.Errorf("read daemon result: %w", err)
	}
	var res daemonResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("decode daemon result: %w", err)
	}
	return &res, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// getJSON GETs u and requires a 200 with a JSON body, decoded into out
// when out is non-nil.
func getJSON(ctx context.Context, c *http.Client, u string, out any) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	if out == nil {
		if !json.Valid(body) {
			return nil, fmt.Errorf("GET %s: body is not JSON", u)
		}
		return body, nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return nil, fmt.Errorf("GET %s: %w", u, err)
	}
	return body, nil
}

// wave is one injected report wave as the generator tracks it.
type wave struct {
	k        int
	sched    scheduled
	ok       bool
	roundsAt int // /status rounds read after the inject returned (-1 until read)
	retired  bool
}

// daemonStatus is the part of GET /status the generator reads.
type daemonStatus struct {
	Rounds         int     `json:"rounds"`
	Reports        int     `json:"reports"`
	Records        int     `json:"records"`
	PendingBatches int     `json:"pending_batches"`
	BacklogSeconds float64 `json:"backlog_seconds"`
}

type statusSample struct {
	at time.Time
	st daemonStatus
}

// ingestRun is one load run against one daemon.
type ingestRun struct {
	p      ingestParams
	cfg    runConfig
	d      *daemonProc
	ctl    *http.Client // injects and status probes
	qc     *http.Client // the query stream
	replay int          // >0: inject exactly this many waves, ignoring end
	start  time.Time
	end    time.Time

	// Owned by the inject/probe loop.
	waves        []*wave
	status       []statusSample
	reports0     int // committed reports when the load started
	posts        int // posts injected so far
	injectMS     []float64
	injectLate   []float64
	lastRetire   time.Time
	finalSummary []byte
	peakRSS      float64   // the daemon's VmHWM once the load has drained, in MB
	lat          []float64 // wave latencies in seconds, set by finish

	// Owned by the query stream until run returns.
	sum, page   []float64
	queryLate   []float64
	queries     int
	queryFailed int
}

// waveSeed derives wave k's seed from the run seed.
func (r *ingestRun) waveSeed(k int) int64 {
	if r.p.seedPool > 0 {
		return mixSeed(r.cfg.seed, int64(1_000_000+(k-1)%r.p.seedPool))
	}
	return mixSeed(r.cfg.seed, int64(k))
}

// mixSeed is a splitmix64 step: distinct (seed, i) pairs give unrelated
// seeds.
func mixSeed(seed, i int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

func (r *ingestRun) outstanding() int {
	n := 0
	for _, w := range r.waves {
		if !w.retired {
			n++
		}
	}
	return n
}

func (r *ingestRun) due(k int) time.Time {
	perWave := time.Duration(float64(r.p.waveMessages) / r.p.rate * float64(time.Second))
	return r.start.Add(time.Duration(k-1) * perWave)
}

// inject sends wave k, due at due.
func (r *ingestRun) inject(ctx context.Context, k int, due time.Time) {
	w := &wave{k: k, roundsAt: -1}
	w.sched.due = due
	w.sched.sent = time.Now()
	body, _ := json.Marshal(core.InjectSpec{Seed: r.waveSeed(k), Messages: r.p.waveMessages}) // ints always encode
	var resp struct {
		AppendedPosts int `json:"appended_posts"`
	}
	err := postJSON(ctx, r.ctl, r.d.url+"/inject", body, &resp)
	w.sched.done = time.Now()
	r.injectMS = append(r.injectMS, ms(w.sched.done.Sub(w.sched.sent)))
	r.injectLate = append(r.injectLate, ms(w.sched.late()))
	if err != nil {
		fmt.Fprintf(os.Stderr, "inject wave %d: %v\n", k, err)
		w.retired = true
	} else {
		w.ok = true
		r.posts += resp.AppendedPosts
	}
	r.waves = append(r.waves, w)
}

func postJSON(ctx context.Context, c *http.Client, u string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", u, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// probe reads /status and retires every wave that must be fully
// queryable: a round that started after the wave's inject returned has
// committed, and nothing submitted is still waiting to merge.
func (r *ingestRun) probe(ctx context.Context) error {
	var st daemonStatus
	if _, err := getJSON(ctx, r.ctl, r.d.url+"/status", &st); err != nil {
		return err
	}
	now := time.Now()
	r.status = append(r.status, statusSample{at: now, st: st})
	for _, w := range r.waves {
		if w.retired {
			continue
		}
		switch {
		case w.roundsAt < 0:
			w.roundsAt = st.Rounds
		case st.Rounds >= w.roundsAt+2 && st.PendingBatches == 0:
			w.retired = true
			r.lastRetire = now
		}
	}
	return nil
}

// uncommitted is how many injected posts the daemon has not yet
// committed, by its own /status count.
func (r *ingestRun) uncommitted() int {
	if len(r.status) == 0 {
		return r.posts
	}
	return max(0, r.posts-(r.status[len(r.status)-1].st.Reports-r.reports0))
}

// loading reports whether more waves are to be sent.
func (r *ingestRun) loading(now time.Time) bool {
	switch {
	case r.replay > 0:
		return len(r.waves) < r.replay
	case r.p.closed:
		return now.Before(r.end)
	default:
		return r.due(len(r.waves) + 1).Before(r.end)
	}
}

// windowPosts is the closed loop's budget of uncommitted posts: inflight
// waves of the mean wave size seen so far.
func (r *ingestRun) windowPosts() int {
	if len(r.waves) == 0 || r.posts == 0 {
		return r.p.inflight * r.p.waveMessages
	}
	return r.p.inflight * r.posts / len(r.waves)
}

// run drives the load until the run's end (or until replay waves were
// sent), then drains until every wave is retired.
func (r *ingestRun) run(ctx context.Context) error {
	var domains []string
	if r.p.queryRate > 0 {
		var err error
		if domains, err = r.seedDomains(ctx); err != nil {
			return err
		}
	}
	if err := r.probe(ctx); err != nil {
		return fmt.Errorf("status probe: %w", err)
	}
	r.reports0 = r.status[0].st.Reports
	r.start = time.Now()
	r.end = r.start.Add(r.cfg.seconds)
	deadline := r.end.Add(drainDeadline)
	if r.replay > 0 {
		deadline = r.start.Add(4*r.cfg.seconds + drainDeadline)
	}
	var wg sync.WaitGroup
	qctx, stopQueries := context.WithCancel(ctx)
	defer func() {
		stopQueries()
		wg.Wait()
	}()
	if r.p.queryRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.queryStream(qctx, domains)
		}()
	}
	nextProbe := r.start
	roomAt := r.start // when the closed loop last learned it had room
	for {
		if r.p.closed {
			for r.loading(time.Now()) && r.uncommitted() < r.windowPosts() {
				r.inject(ctx, len(r.waves)+1, roomAt)
			}
		} else {
			for r.loading(time.Now()) && !r.due(len(r.waves)+1).After(time.Now()) {
				k := len(r.waves) + 1
				r.inject(ctx, k, r.due(k))
			}
		}
		if now := time.Now(); !now.Before(nextProbe) {
			if err := r.probe(ctx); err != nil {
				return fmt.Errorf("status probe: %w", err)
			}
			roomAt = now
			nextProbe = now.Add(probeEvery)
		}
		loading := r.loading(time.Now())
		if !loading && r.outstanding() == 0 || time.Now().After(deadline) {
			// Peak memory of the load itself, before any query at rest.
			var err error
			r.peakRSS, err = peakRSSMB(fmt.Sprintf("/proc/%d/status", r.d.cmd.Process.Pid))
			return err
		}
		wake := nextProbe
		if !r.p.closed && loading {
			if d := r.due(len(r.waves) + 1); d.Before(wake) {
				wake = d
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Until(wake)):
		}
	}
}

// seedDomains lists domains of the seed world for ?domain= lookups.
func (r *ingestRun) seedDomains(ctx context.Context) ([]string, error) {
	var page report.ReportsResult
	if _, err := getJSON(ctx, r.qc, r.d.url+"/query/reports?limit=1000", &page); err != nil {
		return nil, fmt.Errorf("list seed domains: %w", err)
	}
	var out []string
	seen := map[string]bool{}
	for _, rec := range page.Reports {
		if rec.Domain != "" && !seen[rec.Domain] {
			seen[rec.Domain] = true
			out = append(out, rec.Domain)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("seed world has no domains")
	}
	return out, nil
}

// queryStream sends queries on a fixed schedule until ctx ends, timing
// each from its due time.
func (r *ingestRun) queryStream(ctx context.Context, domains []string) {
	every := time.Duration(float64(time.Second) / r.p.queryRate)
	for i := 0; ; i++ {
		due := r.start.Add(time.Duration(i) * every)
		if !due.Before(r.end) {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Until(due)):
		}
		item := scheduled{due: due, sent: time.Now()}
		kind := queryPattern[i%len(queryPattern)]
		var err error
		switch kind {
		case "summary":
			var s report.Summary
			_, err = getJSON(ctx, r.qc, r.d.url+"/query/summary", &s)
		case "reports":
			var p report.ReportsResult
			_, err = getJSON(ctx, r.qc, r.d.url+"/query/reports?limit=100", &p)
		default:
			var p report.ReportsResult
			_, err = getJSON(ctx, r.qc, r.d.url+"/query/reports?"+url.Values{"domain": {domains[i%len(domains)]}}.Encode(), &p)
		}
		item.done = time.Now()
		r.queries++
		r.queryLate = append(r.queryLate, ms(item.late()))
		switch {
		case err != nil:
			if ctx.Err() == nil {
				r.queryFailed++
				fmt.Fprintf(os.Stderr, "query %s: %v\n", kind, err)
			}
		case kind == "summary":
			r.sum = append(r.sum, ms(item.latency()))
		case kind == "reports":
			r.page = append(r.page, ms(item.latency()))
		}
	}
}

// rate is the change of a /status counter per second, measured between
// the first and the last change of that counter inside the loaded
// interval. The daemon commits in whole rounds, so timing from the
// interval's edges would count one round more or less depending on where
// the edges fall.
func (r *ingestRun) rate(field func(daemonStatus) int) float64 {
	var first, last *statusSample
	for i := 1; i < len(r.status); i++ {
		s := &r.status[i]
		if s.at.Before(r.start) || s.at.After(r.end) || field(s.st) == field(r.status[i-1].st) {
			continue
		}
		if first == nil {
			first = s
		}
		last = s
	}
	if first == nil || !last.at.After(first.at) {
		return 0
	}
	return float64(field(last.st)-field(first.st)) / last.at.Sub(first.at).Seconds()
}

// finish stops the daemon and checks its outputs against what the
// generator injected and observed. It returns the wave latencies in
// seconds.
func (r *ingestRun) finish(ctx context.Context, o *outcome) (*daemonResult, []float64, error) {
	body, err := getJSON(ctx, r.ctl, r.d.url+"/query/summary", nil)
	if err != nil {
		r.d.kill()
		return nil, nil, fmt.Errorf("final summary: %w", err)
	}
	r.finalSummary = body
	res, err := r.d.stop()
	if err != nil {
		return nil, nil, err
	}
	o.check(res.Summary == string(body), "final GET /query/summary differs from a fresh view over the served dataset")

	records := map[int][]string{}
	seen := map[string]bool{}
	for _, id := range res.RecordIDs {
		o.check(!seen[id], "record %s appears more than once in the served dataset", id)
		seen[id] = true
		if k, ok := injectedWave(id); ok {
			records[k] = append(records[k], id)
		}
	}
	due := map[int]time.Time{}
	for _, w := range r.waves {
		o.attempted++
		if !w.ok {
			o.failed++
			continue
		}
		if !w.retired {
			o.failed++ // not queryable by the drain deadline
		}
		due[w.k] = w.sched.due
	}
	for k := range records {
		o.check(k <= len(r.waves), "dataset holds records of wave %d, but only %d waves were injected", k, len(r.waves))
	}
	visible := make(map[string]time.Time, len(res.Visible))
	for id, ns := range res.Visible {
		visible[id] = time.Unix(0, ns)
	}
	lat, missing := waveLatencies(due, records, visible)
	for _, k := range missing {
		o.failed++
		o.check(len(records[k]) > 0, "injected wave %d has no records in the served dataset", k)
	}
	if len(missing) > 0 {
		o.note("%d waves were not queryable within the drain deadline", len(missing))
	}
	secs := make([]float64, 0, len(lat))
	for _, d := range lat {
		secs = append(secs, d.Seconds())
	}
	r.lat = secs
	o.attempted += r.queries
	o.failed += r.queryFailed
	return res, secs, nil
}

// drain reads and discards the rest of a stream.
func drain(r io.Reader) { _, _ = io.Copy(io.Discard, r) }
