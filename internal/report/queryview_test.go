package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/annotate"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
)

func queryRecord(id, domain, sender string, postedAt time.Time) core.Record {
	return core.Record{
		ID:        id,
		Forum:     corpus.ForumTwitter,
		PostedAt:  postedAt,
		Domain:    domain,
		SenderRaw: sender,
		Text:      "test report " + id,
		Annotation: annotate.Annotation{
			ScamType: corpus.ScamDelivery,
			Brand:    "USPS",
		},
	}
}

// seedView builds the fixture the filter tests run against:
//
//	r1 evil.test     +15550000001  Jan 1   \
//	r2 evil.test     +15550000002  Jan 2    > one campaign (shared domain)
//	r3 other.test    +15550000002  Jan 3   /  (r3 joins via shared sender)
//	r4 LONE.test     ""            Jan 4   — its own campaign
//	r5 ""            +15550000009  Jan 5   — its own campaign
func seedView(t *testing.T) *QueryView {
	t.Helper()
	v := NewQueryView()
	day := func(d int) time.Time {
		return time.Date(2026, 1, d, 12, 0, 0, 0, time.UTC)
	}
	v.Add([]core.Record{
		queryRecord("r1", "evil.test", "+15550000001", day(1)),
		queryRecord("r2", "evil.test", "+15550000002", day(2)),
	})
	// Second batch exercises incremental clustering across Add calls.
	v.Add([]core.Record{
		queryRecord("r3", "other.test", "+15550000002", day(3)),
		queryRecord("r4", "LONE.test", "", day(4)),
		queryRecord("r5", "", "+15550000009", day(5)),
	})
	return v
}

func getReports(t *testing.T, srv *httptest.Server, query string) ReportsResult {
	t.Helper()
	resp, err := http.Get(srv.URL + "/query/reports" + query)
	if err != nil {
		t.Fatalf("GET %s: %v", query, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", query, resp.StatusCode)
	}
	var res ReportsResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode %s: %v", query, err)
	}
	return res
}

func reportIDs(res ReportsResult) []string {
	out := make([]string, 0, len(res.Reports))
	for _, r := range res.Reports {
		out = append(out, r.ID)
	}
	return out
}

func sameIDs(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestQueryReportsFilters pins every /query/reports parameter at the HTTP
// level against the seeded fixture.
func TestQueryReportsFilters(t *testing.T) {
	v := seedView(t)
	mux := http.NewServeMux()
	mux.Handle("GET /query/reports", v.ReportsHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cases := []struct {
		name  string
		query string
		want  []string
	}{
		{"no filter returns all, posted_at order", "", []string{"r1", "r2", "r3", "r4", "r5"}},
		{"domain", "?domain=evil.test", []string{"r1", "r2"}},
		{"domain is case-insensitive", "?domain=lone.TEST", []string{"r4"}},
		{"sender", "?sender=%2B15550000002", []string{"r2", "r3"}},
		{"domain AND sender intersect", "?domain=evil.test&sender=%2B15550000002", []string{"r2"}},
		{"campaign spans shared infrastructure", "?campaign=c-r1", []string{"r1", "r2", "r3"}},
		{"singleton campaign", "?campaign=c-r5", []string{"r5"}},
		{"since is inclusive", "?since=2026-01-03T12:00:00Z", []string{"r3", "r4", "r5"}},
		{"until is exclusive", "?until=2026-01-03T12:00:00Z", []string{"r1", "r2"}},
		{"since+until window", "?since=2026-01-02T00:00:00Z&until=2026-01-04T00:00:00Z", []string{"r2", "r3"}},
		{"no match is empty not error", "?domain=nothere.test", []string{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := getReports(t, srv, tc.query)
			if got := reportIDs(res); !sameIDs(got, tc.want) {
				t.Fatalf("GET %s -> %v, want %v", tc.query, got, tc.want)
			}
			if res.TotalMatched != len(tc.want) || res.Returned != len(tc.want) {
				t.Fatalf("GET %s -> total=%d returned=%d, want %d",
					tc.query, res.TotalMatched, res.Returned, len(tc.want))
			}
		})
	}

	t.Run("limit truncates but reports the full match count", func(t *testing.T) {
		res := getReports(t, srv, "?limit=2")
		if got := reportIDs(res); !sameIDs(got, []string{"r1", "r2"}) {
			t.Fatalf("limited IDs = %v", got)
		}
		if res.TotalMatched != 5 || res.Returned != 2 {
			t.Fatalf("total=%d returned=%d, want 5/2", res.TotalMatched, res.Returned)
		}
	})

	t.Run("campaign label is stable and attached to every report", func(t *testing.T) {
		res := getReports(t, srv, "?domain=evil.test")
		for _, r := range res.Reports {
			if r.Campaign != "c-r1" {
				t.Fatalf("report %s campaign = %q, want c-r1", r.ID, r.Campaign)
			}
		}
	})

	bad := []string{
		"?since=yesterday",
		"?until=not-a-time",
		"?limit=0",
		"?limit=-3",
		"?limit=many",
		"?bogus=1",
	}
	for _, q := range bad {
		resp, err := http.Get(srv.URL + "/query/reports" + q)
		if err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s -> status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestQuerySummary pins the roll-up shape: distinct counts, leaderboard
// ordering (count desc, name asc), and the top parameter.
func TestQuerySummary(t *testing.T) {
	v := seedView(t)
	mux := http.NewServeMux()
	mux.Handle("GET /query/summary", v.SummaryHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/query/summary")
	if err != nil {
		t.Fatalf("GET /query/summary: %v", err)
	}
	defer resp.Body.Close()
	var s Summary
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatalf("decode summary: %v", err)
	}
	if s.Records != 5 || s.Domains != 3 || s.Senders != 3 || s.Campaigns != 3 {
		t.Fatalf("summary counts = %+v, want records=5 domains=3 senders=3 campaigns=3", s)
	}
	if len(s.TopDomains) != 3 || s.TopDomains[0].Name != "evil.test" || s.TopDomains[0].Count != 2 {
		t.Fatalf("top domains = %+v", s.TopDomains)
	}
	if s.TopSenders[0].Name != "+15550000002" || s.TopSenders[0].Count != 2 {
		t.Fatalf("top senders = %+v", s.TopSenders)
	}
	if s.TopCampaigns[0].Name != "c-r1" || s.TopCampaigns[0].Count != 3 {
		t.Fatalf("top campaigns = %+v", s.TopCampaigns)
	}

	resp2, err := http.Get(srv.URL + "/query/summary?top=1")
	if err != nil {
		t.Fatalf("GET top=1: %v", err)
	}
	defer resp2.Body.Close()
	var s1 Summary
	if err := json.NewDecoder(resp2.Body).Decode(&s1); err != nil {
		t.Fatalf("decode top=1: %v", err)
	}
	if len(s1.TopDomains) != 1 || len(s1.TopSenders) != 1 || len(s1.TopCampaigns) != 1 {
		t.Fatalf("top=1 leaderboards = %d/%d/%d rows", len(s1.TopDomains), len(s1.TopSenders), len(s1.TopCampaigns))
	}
	// Distinct counts are unaffected by leaderboard truncation.
	if s1.Campaigns != 3 {
		t.Fatalf("top=1 campaigns = %d, want 3", s1.Campaigns)
	}
}

// TestQueryViewMergeOrderIndependence pins the union-find determinism
// claim: feeding the same records in a different batch order yields the
// same campaign labels and summary.
func TestQueryViewMergeOrderIndependence(t *testing.T) {
	day := func(d int) time.Time { return time.Date(2026, 2, d, 0, 0, 0, 0, time.UTC) }
	recs := []core.Record{
		queryRecord("x1", "a.test", "s1", day(1)),
		queryRecord("x2", "b.test", "s1", day(2)), // joins x1 via sender
		queryRecord("x3", "b.test", "s2", day(3)), // joins via domain
		queryRecord("x4", "c.test", "s9", day(4)), // separate campaign
	}
	forward := NewQueryView()
	forward.Add(recs)
	reversed := NewQueryView()
	for i := len(recs) - 1; i >= 0; i-- {
		reversed.Add([]core.Record{recs[i]})
	}
	sf, sr := forward.Summarize(0), reversed.Summarize(0)
	fj, _ := json.Marshal(sf)
	rj, _ := json.Marshal(sr)
	// Labels differ by insertion order? They must not: min record ID in a
	// cluster is order-free, and leaderboards sort deterministically.
	if string(fj) != string(rj) {
		t.Fatalf("summaries diverge by insertion order:\n%s\n%s", fj, rj)
	}
	got := forward.Reports(ReportsQuery{Campaign: "c-x1"})
	if got.TotalMatched != 3 {
		t.Fatalf("campaign c-x1 matched %d, want 3", got.TotalMatched)
	}
	if strings.HasPrefix(got.Reports[0].Campaign, "c-c") {
		t.Fatalf("unexpected campaign label %q", got.Reports[0].Campaign)
	}
}

// TestQuerySummaryCampaignsMatchRecordWalk pins the incremental campaign
// sizes against a walk that labels every record: random records over small
// domain and sender pools, fed in random batch splits, so later records
// keep merging earlier campaigns.
func TestQuerySummaryCampaignsMatchRecordWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := NewQueryView()
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	for n := 0; n < 600; {
		var batch []core.Record
		for size := 1 + rng.Intn(40); size > 0; size-- {
			dom, snd := "", ""
			if rng.Intn(4) > 0 {
				dom = fmt.Sprintf("d%d.test", rng.Intn(120))
			}
			if rng.Intn(3) > 0 {
				snd = fmt.Sprintf("+1555%07d", rng.Intn(150))
			}
			batch = append(batch, queryRecord(fmt.Sprintf("q%03d", n), dom, snd, base.Add(time.Duration(n)*time.Minute)))
			n++
		}
		v.Add(batch)
	}

	want := map[string]int{}
	v.mu.Lock()
	for _, r := range v.recs {
		want[v.campaignLocked(r)]++
	}
	v.mu.Unlock()
	s := v.Summarize(len(want) + 1)
	if s.Campaigns != len(want) || len(s.TopCampaigns) != len(want) {
		t.Fatalf("summary has %d campaigns (%d rows), record walk has %d", s.Campaigns, len(s.TopCampaigns), len(want))
	}
	for _, row := range s.TopCampaigns {
		if want[row.Name] != row.Count {
			t.Errorf("campaign %s: summary counts %d records, record walk %d", row.Name, row.Count, want[row.Name])
		}
	}
}

// TestQueryReportsCursorPagination walks the seeded fixture with limit=2
// pages: every record is served exactly once, in (posted_at, id) order,
// and the final page carries no cursor.
func TestQueryReportsCursorPagination(t *testing.T) {
	v := seedView(t)
	mux := http.NewServeMux()
	mux.Handle("GET /query/reports", v.ReportsHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var walked []string
	cursor := ""
	for page := 0; ; page++ {
		if page > 10 {
			t.Fatal("pagination did not terminate")
		}
		q := "?limit=2"
		if cursor != "" {
			q += "&cursor=" + cursor
		}
		res := getReports(t, srv, q)
		walked = append(walked, reportIDs(res)...)
		if res.NextCursor == "" {
			if res.Returned == 2 && len(walked) < 5 {
				t.Fatalf("full page %d carried no cursor with records remaining", page)
			}
			break
		}
		if res.Returned != 2 {
			t.Fatalf("page %d: returned %d with a next cursor, want a full page of 2", page, res.Returned)
		}
		cursor = res.NextCursor
	}
	if !sameIDs(walked, []string{"r1", "r2", "r3", "r4", "r5"}) {
		t.Fatalf("cursor walk served %v, want every record once in order", walked)
	}

	// TotalMatched counts matches after the cursor, so it shrinks page by
	// page; the first page sees everything.
	first := getReports(t, srv, "?limit=2")
	if first.TotalMatched != 5 {
		t.Errorf("first page TotalMatched = %d, want 5", first.TotalMatched)
	}
	second := getReports(t, srv, "?limit=2&cursor="+first.NextCursor)
	if second.TotalMatched != 3 {
		t.Errorf("second page TotalMatched = %d, want 3 (matches after cursor)", second.TotalMatched)
	}

	// Cursor composes with filters: paging within a campaign.
	res := getReports(t, srv, "?campaign=c-r1&limit=1")
	if !sameIDs(reportIDs(res), []string{"r1"}) || res.NextCursor == "" {
		t.Fatalf("campaign page 1: %v cursor=%q", reportIDs(res), res.NextCursor)
	}
	res = getReports(t, srv, "?campaign=c-r1&limit=5&cursor="+res.NextCursor)
	if !sameIDs(reportIDs(res), []string{"r2", "r3"}) || res.NextCursor != "" {
		t.Fatalf("campaign page 2: %v cursor=%q", reportIDs(res), res.NextCursor)
	}

	// Malformed cursors are a client error, not a silent full restart.
	for _, bad := range []string{"not-base64!", "bm8tcGlwZQ", "MjAyNnxub3QtYS10aW1lfHg"} {
		resp, err := http.Get(srv.URL + "/query/reports?cursor=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("cursor %q -> status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestQueryReportsCSV pins the CSV export: content type, header row, one
// row per report, and the pagination cursor riding in X-Next-Cursor.
func TestQueryReportsCSV(t *testing.T) {
	v := seedView(t)
	mux := http.NewServeMux()
	mux.Handle("GET /query/reports", v.ReportsHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/query/reports?format=csv&limit=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("Content-Type = %q, want text/csv", ct)
	}
	next := resp.Header.Get("X-Next-Cursor")
	if next == "" {
		t.Error("truncated CSV page carries no X-Next-Cursor header")
	}
	rows, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("CSV has %d rows, want header + 3", len(rows))
	}
	if rows[0][0] != "id" || rows[0][9] != "text" {
		t.Errorf("CSV header = %v", rows[0])
	}
	if rows[1][0] != "r1" || rows[3][0] != "r3" {
		t.Errorf("CSV rows out of order: %v", rows)
	}

	// Resuming from the CSV cursor in JSON yields the rest — the two
	// formats share one pagination scheme.
	res := getReports(t, srv, "?limit=10&cursor="+next)
	if !sameIDs(reportIDs(res), []string{"r4", "r5"}) {
		t.Fatalf("resume after CSV page: %v", reportIDs(res))
	}

	// The last CSV page has no cursor header.
	resp2, err := http.Get(srv.URL + "/query/reports?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Next-Cursor"); got != "" {
		t.Errorf("final CSV page has X-Next-Cursor %q", got)
	}

	// Unknown formats and unknown parameters stay a 400.
	for _, q := range []string{"?format=xml", "?format=csv&bogus=1"} {
		resp, err := http.Get(srv.URL + "/query/reports" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s -> status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestCursorCodec pins the token round-trip and decode failure modes.
func TestCursorCodec(t *testing.T) {
	at := time.Date(2026, 1, 3, 12, 0, 0, 123456789, time.UTC)
	c := Cursor{PostedAt: at, ID: "r3"}
	got, err := DecodeCursor(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.PostedAt.Equal(at) || got.ID != "r3" {
		t.Errorf("round-trip = %+v, want %+v", got, c)
	}
	if (Cursor{}).IsZero() != true || c.IsZero() {
		t.Error("IsZero misreports")
	}
	for _, bad := range []string{"", "%%%", "bm9wZQ"} {
		if _, err := DecodeCursor(bad); err == nil {
			t.Errorf("DecodeCursor(%q) accepted garbage", bad)
		}
	}
}

// fullSortReports is the reference /query/reports answer: filter every
// candidate, sort all matches by (posted_at, id), label the page.
func fullSortReports(v *QueryView, q ReportsQuery) ReportsResult {
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultQueryLimit
	}
	limit = min(limit, MaxQueryLimit)
	v.mu.Lock()
	defer v.mu.Unlock()
	var matched []int
	for i := range v.recs {
		r := &v.recs[i]
		switch {
		case q.Domain != "" && r.Domain != strings.ToLower(q.Domain),
			q.Sender != "" && r.Sender != strings.ToLower(q.Sender),
			!q.Since.IsZero() && r.PostedAt.Before(q.Since),
			!q.Until.IsZero() && !r.PostedAt.Before(q.Until),
			q.Campaign != "" && v.campaignLocked(*r) != q.Campaign,
			!q.After.IsZero() && (r.PostedAt.Before(q.After.PostedAt) ||
				r.PostedAt.Equal(q.After.PostedAt) && r.ID <= q.After.ID):
			continue
		}
		matched = append(matched, i)
	}
	sort.Slice(matched, func(a, b int) bool {
		ra, rb := &v.recs[matched[a]], &v.recs[matched[b]]
		if !ra.PostedAt.Equal(rb.PostedAt) {
			return ra.PostedAt.Before(rb.PostedAt)
		}
		return ra.ID < rb.ID
	})
	res := ReportsResult{TotalMatched: len(matched)}
	if len(matched) > limit {
		matched = matched[:limit]
		last := v.recs[matched[len(matched)-1]]
		res.NextCursor = Cursor{PostedAt: last.PostedAt, ID: last.ID}.Encode()
	}
	res.Reports = make([]queryRec, len(matched))
	for j, i := range matched {
		res.Reports[j] = v.recs[i]
		res.Reports[j].Campaign = v.campaignLocked(v.recs[i])
	}
	res.Returned = len(matched)
	return res
}

// fullSortSummary is the reference /query/summary answer: count every
// leaderboard entry into a map, sort it whole, truncate.
func fullSortSummary(v *QueryView, top int) Summary {
	if top <= 0 {
		top = DefaultSummaryTop
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	rank := func(counts map[string]int) []NameCount {
		rows := make([]NameCount, 0, len(counts))
		for name, n := range counts {
			rows = append(rows, NameCount{Name: name, Count: n})
		}
		sort.Slice(rows, func(a, b int) bool {
			if rows[a].Count != rows[b].Count {
				return rows[a].Count > rows[b].Count
			}
			return rows[a].Name < rows[b].Name
		})
		return rows[:min(top, len(rows))]
	}
	lens := func(index map[string][]int) map[string]int {
		out := map[string]int{}
		for name, idxs := range index {
			out[name] = len(idxs)
		}
		return out
	}
	camps := map[string]int{}
	for root, n := range v.members {
		camps["c-"+v.minID[root]] = n
	}
	return Summary{
		Records:      len(v.recs),
		Domains:      len(v.byDomain),
		Senders:      len(v.bySender),
		Campaigns:    len(camps),
		TopDomains:   rank(lens(v.byDomain)),
		TopSenders:   rank(lens(v.bySender)),
		TopCampaigns: rank(camps),
	}
}

// TestQueryViewMatchesFullSort compares Reports and Summarize byte for byte
// with the full-sort reference over random views (random batch splits,
// shared timestamps, mixed-case infrastructure) and random queries:
// filters, campaigns, since/until bounds, cursors, limits and top sizes.
func TestQueryViewMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	at := func() time.Time { return base.Add(time.Duration(rng.Intn(60)) * time.Hour) }
	for trial := 0; trial < 40; trial++ {
		v := NewQueryView()
		var all []core.Record
		n := rng.Intn(300)
		for len(all) < n {
			var batch []core.Record
			for size := rng.Intn(30); size > 0 && len(all)+len(batch) < n; size-- {
				dom, snd := "", ""
				if rng.Intn(4) > 0 {
					dom = fmt.Sprintf("D%d.test", rng.Intn(40))
					if rng.Intn(2) == 0 {
						dom = strings.ToLower(dom)
					}
				}
				if rng.Intn(3) > 0 {
					snd = fmt.Sprintf("+1555%07d", rng.Intn(50))
				}
				id := fmt.Sprintf("t%d-%04d", trial, rng.Intn(1e4))
				for _, r := range append(all, batch...) {
					if r.ID == id {
						id += "x" // IDs are unique, as the record log guarantees
					}
				}
				batch = append(batch, queryRecord(id, dom, snd, at()))
			}
			v.Add(batch) // empty batches included
			all = append(all, batch...)
		}
		campaigns := []string{"c-nope"}
		for _, row := range fullSortSummary(v, len(all)+1).TopCampaigns {
			campaigns = append(campaigns, row.Name)
		}
		for qn := 0; qn < 60; qn++ {
			var q ReportsQuery
			if len(all) > 0 && rng.Intn(4) == 0 {
				q.Domain = strings.ToUpper(all[rng.Intn(len(all))].Domain)
			}
			if len(all) > 0 && rng.Intn(4) == 0 {
				q.Sender = all[rng.Intn(len(all))].SenderRaw
			}
			if rng.Intn(3) == 0 {
				q.Campaign = campaigns[rng.Intn(len(campaigns))]
			}
			if rng.Intn(3) == 0 {
				q.Since = at()
			}
			if rng.Intn(3) == 0 {
				q.Until = at()
			}
			switch {
			case len(all) > 0 && rng.Intn(3) == 0:
				r := all[rng.Intn(len(all))]
				q.After = Cursor{PostedAt: r.PostedAt, ID: r.ID}
			case rng.Intn(4) == 0:
				q.After = Cursor{PostedAt: at(), ID: fmt.Sprintf("t%d-%04d", trial, rng.Intn(1e4))}
			}
			q.Limit = rng.Intn(len(all) + 3)
			got, _ := json.Marshal(v.Reports(q))
			want, _ := json.Marshal(fullSortReports(v, q))
			if string(got) != string(want) {
				t.Fatalf("trial %d: Reports(%+v)\n got %s\nwant %s", trial, q, got, want)
			}
		}
		for _, top := range []int{0, 1, 2, 3, 7, rng.Intn(len(all) + 2), len(all) + 5} {
			got, _ := json.Marshal(v.Summarize(top))
			want, _ := json.Marshal(fullSortSummary(v, top))
			if string(got) != string(want) {
				t.Fatalf("trial %d: Summarize(%d)\n got %s\nwant %s", trial, top, got, want)
			}
		}
	}
}
