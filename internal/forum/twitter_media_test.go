package forum

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/checkpoint"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/netutil"
)

// mediaFixture is a Twitter timeline with screenshots on most posts, plus
// posts that match several keywords, so the collector's cross-keyword
// dedup decides which keyword's page yields them.
func mediaFixture(t *testing.T) []post {
	t.Helper()
	posts := BuildFixtures(testWorld(t, 400)).Twitter
	last := posts[0].CreatedAt
	for _, p := range posts {
		if p.CreatedAt.After(last) {
			last = p.CreatedAt
		}
	}
	for i := 0; i < 12; i++ {
		posts = append(posts, post{
			ID:         fmt.Sprintf("multi-%02d", i),
			CreatedAt:  last.Add(time.Duration(i+1) * time.Minute),
			Body:       "Smishing alert: this SMS scam is pure sms fraud",
			Attachment: []byte(fmt.Sprintf("shot-%02d", i)),
		})
	}
	return posts
}

// serialSweep is the reference collection: every keyword's pages in
// order, each tweet's media downloaded before the next tweet is looked at.
func serialSweep(t *testing.T, api *netutil.Client, size int) []RawReport {
	t.Helper()
	ctx := context.Background()
	seen := map[string]bool{}
	var out []RawReport
	for _, kw := range Keywords {
		tok := ""
		for {
			path := fmt.Sprintf("/2/tweets/search/all?query=%s&max_results=%d", strings.ReplaceAll(kw, " ", "%20"), size)
			if tok != "" {
				path += "&next_token=" + tok
			}
			var resp searchResponse
			if err := api.GetJSON(ctx, path, &resp); err != nil {
				t.Fatal(err)
			}
			urls := map[string]string{}
			for _, m := range resp.Includes.Media {
				urls[m.MediaKey] = m.URL
			}
			for _, tw := range resp.Data {
				if seen[tw.ID] {
					continue
				}
				seen[tw.ID] = true
				rep := RawReport{Forum: corpus.ForumTwitter, PostID: tw.ID, PostedAt: tw.CreatedAt, Body: tw.Text}
				if tw.Attachments != nil {
					for _, key := range tw.Attachments.MediaKeys {
						if url, ok := urls[key]; ok {
							data, err := api.GetBytes(ctx, url)
							if err != nil {
								t.Fatal(err)
							}
							rep.Attachment = data
						}
					}
				}
				out = append(out, rep)
			}
			if resp.Meta.NextToken == "" {
				break
			}
			tok = resp.Meta.NextToken
		}
	}
	return out
}

func sameReports(a, b []RawReport) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.PostID != y.PostID || !x.PostedAt.Equal(y.PostedAt) || x.Body != y.Body || !bytes.Equal(x.Attachment, y.Attachment) {
			return false
		}
	}
	return true
}

// TestTwitterCollectorConcurrentMediaMatchesSerialSweep: downloading a page's media
// concurrently changes neither which reports come out nor their order or
// bytes, and the downloads really overlap, never beyond mediaWidth.
func TestTwitterCollectorConcurrentMediaMatchesSerialSweep(t *testing.T) {
	posts := mediaFixture(t)
	api := NewTwitterServer(posts, "tok", 0).Handler()
	var inFlight, peak atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/2/media/") {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(2 * time.Millisecond)
		}
		api.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewTwitterCollector(srv.URL, "tok")
	c.PageSize = 10
	want := serialSweep(t, &c.API, c.PageSize)
	peak.Store(0)
	var got []RawReport
	if err := c.Collect(context.Background(), func(r RawReport) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sameReports(got, want) {
		t.Fatalf("concurrent collection yielded %d reports, serial sweep %d, or they differ in order or bytes", len(got), len(want))
	}
	if len(got) != len(posts) {
		t.Fatalf("collected %d reports from %d posts", len(got), len(posts))
	}
	if p := peak.Load(); p < 2 || p > mediaWidth {
		t.Fatalf("peak concurrent media downloads = %d, want 2..%d", p, mediaWidth)
	}
}

// TestTwitterCollectorMediaErrorIsEarliestReports: when several of a page's media
// downloads fail, the collection fails with the earliest failing report's
// error even if a later one fails first, after sinking exactly the reports
// before it.
func TestTwitterCollectorMediaErrorIsEarliestReports(t *testing.T) {
	posts := mediaFixture(t)
	api := NewTwitterServer(posts, "", 0).Handler()
	ref := httptest.NewServer(api)
	order := serialSweep(t, &NewTwitterCollector(ref.URL, "").API, 10)
	ref.Close()

	var shots []int // positions of the first page's reports with media
	for i, r := range order[:10] {
		if r.HasAttachment() {
			shots = append(shots, i)
		}
	}
	if len(shots) < 2 {
		t.Fatalf("first page has %d reports with media, want 2", len(shots))
	}
	early, late := order[shots[0]].PostID, order[shots[1]].PostID
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/2/media/m-" + early:
			time.Sleep(30 * time.Millisecond) // fails last
			http.NotFound(w, r)
		case "/2/media/m-" + late:
			http.NotFound(w, r)
		default:
			api.ServeHTTP(w, r)
		}
	}))
	defer srv.Close()

	c := NewTwitterCollector(srv.URL, "")
	c.PageSize = 10
	var sunk []string
	err := c.Collect(context.Background(), func(r RawReport) error {
		sunk = append(sunk, r.PostID)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "m-"+early) {
		t.Fatalf("err = %v, want the media error of %s", err, early)
	}
	if len(sunk) != shots[0] {
		t.Fatalf("sunk %d reports before the failure, want the %d before %s", len(sunk), shots[0], early)
	}
}

// TestTwitterCollectorCancelMidPageStopsDownloads: cancelling while a page's media
// downloads hang returns ctx.Err() and leaves no download goroutine behind.
func TestTwitterCollectorCancelMidPageStopsDownloads(t *testing.T) {
	api := NewTwitterServer(mediaFixture(t), "", 0).Handler()
	started := make(chan struct{})
	var once sync.Once
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/2/media/") {
			once.Do(func() { close(started) })
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		api.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	c := NewTwitterCollector(srv.URL, "")
	c.PageSize = 10
	_, err := c.CollectSince(ctx, checkpoint.Cursor{}, func(RawReport) error { return nil })
	if err != ctx.Err() || err == nil {
		t.Fatalf("err = %v, want ctx.Err() = %v", err, ctx.Err())
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "forum.prefetch") {
		t.Fatalf("download goroutines outlived the collection:\n%s", stacks)
	}
}

// TestCollectorPrefetchStopWaitsForDownloads: stop returns only once every download
// has returned, including ones slow to notice the cancellation, and every
// result is settled by then — claimed or not.
func TestCollectorPrefetchStopWaitsForDownloads(t *testing.T) {
	var running atomic.Int32
	started := make(chan struct{}, mediaWidth)
	results, stop := prefetch(context.Background(), 3*mediaWidth, func(ctx context.Context, i int) ([]byte, error) {
		running.Add(1)
		defer running.Add(-1)
		started <- struct{}{}
		<-ctx.Done()
		time.Sleep(5 * time.Millisecond)
		return nil, ctx.Err()
	})
	for i := 0; i < mediaWidth; i++ {
		<-started
	}
	stop()
	if n := running.Load(); n != 0 {
		t.Fatalf("%d downloads still running after stop", n)
	}
	for i := range results {
		select {
		case <-results[i].done:
			if results[i].err == nil {
				t.Errorf("result %d settled without data or error", i)
			}
		default:
			t.Fatalf("result %d never settled", i)
		}
	}
}
