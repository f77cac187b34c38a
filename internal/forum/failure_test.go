package forum

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/netutil"
)

// flaky wraps a handler, failing a deterministic fraction of requests with
// the given status before letting them through on retry. A request fails
// when the global count is a multiple of failEvery and its URI has not
// failed yet, so a retry always gets through however concurrent requests
// interleave; in serial order that is every failEvery-th request.
type flaky struct {
	next      http.Handler
	status    int
	failEvery int32 // every Nth request fails
	counter   atomic.Int32
	failures  atomic.Int32
	failed    sync.Map // request URI -> struct{}, once it has failed
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := f.counter.Add(1)
	if n%f.failEvery == 0 {
		if _, dup := f.failed.LoadOrStore(r.URL.RequestURI(), struct{}{}); !dup {
			f.failures.Add(1)
			netutil.WriteError(w, f.status, "injected failure")
			return
		}
	}
	f.next.ServeHTTP(w, r)
}

func TestTwitterCollectorSurvives5xxStorm(t *testing.T) {
	w := corpus.Generate(corpus.Config{Seed: 61, Messages: 600})
	f := BuildFixtures(w)
	wrapped := &flaky{
		next:      NewTwitterServer(f.Twitter, "", 0).Handler(),
		status:    http.StatusInternalServerError,
		failEvery: 3, // every third request 500s
	}
	srv := httptest.NewServer(wrapped)
	defer srv.Close()

	c := NewTwitterCollector(srv.URL, "")
	c.API.MaxRetries = 6
	c.API.Sleep = func(ctx context.Context, d time.Duration) error { return nil }
	count := 0
	if err := c.Collect(context.Background(), func(RawReport) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != len(f.Twitter) {
		t.Errorf("collected %d of %d under 5xx storm", count, len(f.Twitter))
	}
	if wrapped.failures.Load() == 0 {
		t.Fatal("no failures injected; test is vacuous")
	}
}

func TestSmishtankCollectorSurvives429(t *testing.T) {
	w := corpus.Generate(corpus.Config{Seed: 62, Messages: 3000})
	f := BuildFixtures(w)
	if len(f.Smishtank) == 0 {
		t.Skip("no smishtank posts")
	}
	wrapped := &flaky{
		next:      NewSmishtankServer(f.Smishtank).Handler(),
		status:    http.StatusTooManyRequests,
		failEvery: 4,
	}
	srv := httptest.NewServer(wrapped)
	defer srv.Close()

	c := NewSmishtankCollector(srv.URL)
	c.API.MaxRetries = 6
	count := 0
	if err := c.Collect(context.Background(), func(RawReport) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != len(f.Smishtank) {
		t.Errorf("collected %d of %d under 429 storm", count, len(f.Smishtank))
	}
}

func TestCollectorGivesUpOnPersistentOutage(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		netutil.WriteError(w, http.StatusServiceUnavailable, "maintenance")
	}))
	defer down.Close()

	c := NewTwitterCollector(down.URL, "")
	c.API.MaxRetries = 2
	err := c.Collect(context.Background(), func(RawReport) error { return nil })
	if err == nil {
		t.Fatal("collector succeeded against a dead service")
	}
	if !strings.Contains(err.Error(), "503") {
		t.Errorf("error does not surface status: %v", err)
	}
}

func TestPastebinCollectorSkipsTruncatedLines(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/archive"):
			fmt.Fprintln(w, "p000001")
		default:
			// One good line, one truncated, one empty.
			fmt.Fprintln(w, "+447700900123 | 2023-01-02 | your parcel is held")
			fmt.Fprintln(w, "+44770090 | truncated-no-third-field")
			fmt.Fprintln(w, "")
			fmt.Fprintln(w, "+447700900124 | 2023-01-03 | verify your account")
		}
	}))
	defer srv.Close()

	c := NewPastebinCollector(srv.URL)
	var got []RawReport
	if err := c.Collect(context.Background(), func(r RawReport) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d reports, want 2 (truncated skipped)", len(got))
	}
	if got[0].SMSText != "your parcel is held" {
		t.Errorf("text = %q", got[0].SMSText)
	}
}

func TestSmishingEUCollectorHandlesEmptySite(t *testing.T) {
	srv := httptest.NewServer(NewSmishingEUServer(nil).Handler())
	defer srv.Close()
	count := 0
	if err := NewSmishingEUCollector(srv.URL).Collect(context.Background(), func(RawReport) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("phantom reports from empty site: %d", count)
	}
}

func TestRedditCollectorCorruptMediaAborts(t *testing.T) {
	// A listing that points at a 404 image must error out, not hang.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/img/") {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `{"kind":"Listing","data":{"after":"","children":[
			{"kind":"t3","data":{"id":"x1","title":"smishing","selftext":"smishing report","url":"/img/x1","created_utc":1680000000,"subreddit":"Scams"}}
		]}}`)
	}))
	defer srv.Close()

	c := NewRedditCollector(srv.URL)
	err := c.Collect(context.Background(), func(RawReport) error { return nil })
	if err == nil {
		t.Fatal("missing media did not surface an error")
	}
}
