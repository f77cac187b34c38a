package report

import (
	"encoding/base64"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/core"
)

// QueryView is the serving-side index over the projected dataset: the
// projection's merge worker feeds it every batch it folds in, so the
// /query/* endpoints answer from an always-current in-memory view without
// copying the full dataset per request. It keeps a compact per-record
// projection (id, forum, time, domain, sender, annotation labels) plus
// inverted indexes by domain and sender, and clusters records into
// campaigns with an incremental union-find over shared infrastructure —
// the same linkage rule as internal/cluster (records sharing a domain or
// a sender belong to one campaign), maintained online instead of
// recomputed per render. A campaign's stable label is "c-" plus the
// smallest record ID in the cluster.
type QueryView struct {
	mu       sync.Mutex
	recs     []queryRec
	order    []int            // indexes into recs sorted by (posted_at, id, index)
	byDomain map[string][]int // lowercased domain -> indexes into recs
	bySender map[string][]int // lowercased sender -> indexes into recs

	// Union-find over cluster keys: "d:"+domain, "s:"+sender, "r:"+id for
	// records with neither. minID tracks each root's smallest record ID —
	// the campaign label source — and members its record count, so the
	// summary never walks the records.
	parent  map[string]string
	minID   map[string]string
	members map[string]int
}

// queryRec is the compact serving projection of one core.Record.
type queryRec struct {
	ID         string    `json:"id"`
	Forum      string    `json:"forum"`
	PostedAt   time.Time `json:"posted_at"`
	Domain     string    `json:"domain,omitempty"`
	Sender     string    `json:"sender,omitempty"`
	SenderKind string    `json:"sender_kind,omitempty"`
	Campaign   string    `json:"campaign"`
	ScamType   string    `json:"scam_type,omitempty"`
	Brand      string    `json:"brand,omitempty"`
	Text       string    `json:"text,omitempty"`
}

// NewQueryView returns an empty view.
func NewQueryView() *QueryView {
	return &QueryView{
		byDomain: make(map[string][]int),
		bySender: make(map[string][]int),
		parent:   make(map[string]string),
		minID:    make(map[string]string),
		members:  make(map[string]int),
	}
}

// Add indexes the records of one or more merged batches, sorting them
// into the serving order once. Called by the projection with every batch
// it folds into the dataset, under no external lock.
func (v *QueryView) Add(batches ...[]core.Record) {
	v.mu.Lock()
	defer v.mu.Unlock()
	base := len(v.recs)
	for _, records := range batches {
		v.addLocked(records)
	}
	v.mergeOrderLocked(base)
}

// addLocked indexes one batch of records without ordering them.
func (v *QueryView) addLocked(records []core.Record) {
	for _, r := range records {
		idx := len(v.recs)
		qr := queryRec{
			ID:         r.ID,
			Forum:      string(r.Forum),
			PostedAt:   r.PostedAt,
			Domain:     strings.ToLower(r.Domain),
			Sender:     strings.ToLower(r.SenderRaw),
			SenderKind: string(r.SenderKind),
			ScamType:   string(r.Annotation.ScamType),
			Brand:      r.Annotation.Brand,
			Text:       r.Text,
		}
		v.recs = append(v.recs, qr)
		keys := []string{"r:" + r.ID}
		if qr.Domain != "" {
			v.byDomain[qr.Domain] = append(v.byDomain[qr.Domain], idx)
			keys = append(keys, "d:"+qr.Domain)
		}
		if qr.Sender != "" {
			v.bySender[qr.Sender] = append(v.bySender[qr.Sender], idx)
			keys = append(keys, "s:"+qr.Sender)
		}
		for _, k := range keys {
			v.noteLocked(k, r.ID)
		}
		for i := 1; i < len(keys); i++ {
			v.unionLocked(keys[0], keys[i])
		}
		v.members[v.findLocked(keys[0])]++
	}
}

// mergeOrderLocked sorts the indexes of the records added from base on
// and merges them into order in place, from the back: a batch costs its
// own sort plus one pass over order, and no query ever sorts the view.
func (v *QueryView) mergeOrderLocked(base int) {
	fresh := make([]int, len(v.recs)-base)
	for j := range fresh {
		fresh[j] = base + j
	}
	sort.Slice(fresh, func(a, b int) bool { return v.lessLocked(fresh[a], fresh[b]) })
	i := len(v.order) - 1
	v.order = append(v.order, fresh...)
	for k, j := len(v.order)-1, len(fresh)-1; j >= 0; k-- {
		if i >= 0 && v.lessLocked(fresh[j], v.order[i]) {
			v.order[k] = v.order[i]
			i--
		} else {
			v.order[k] = fresh[j]
			j--
		}
	}
}

// lessLocked orders records by (posted_at, id), the /query/reports order,
// with the insertion index breaking ties between duplicates.
func (v *QueryView) lessLocked(a, b int) bool {
	ra, rb := &v.recs[a], &v.recs[b]
	if c := ra.PostedAt.Compare(rb.PostedAt); c != 0 {
		return c < 0
	}
	if ra.ID != rb.ID {
		return ra.ID < rb.ID
	}
	return a < b
}

// searchLocked returns the first position in order whose record satisfies
// pred, which must be false then true along order (len(order) if never).
func (v *QueryView) searchLocked(pred func(r *queryRec) bool) int {
	return sort.Search(len(v.order), func(i int) bool { return pred(&v.recs[v.order[i]]) })
}

// noteLocked ensures a key exists in the union-find and folds the record
// ID into its root's minimum.
func (v *QueryView) noteLocked(key, recID string) {
	root := v.findLocked(key)
	if cur, ok := v.minID[root]; !ok || recID < cur {
		v.minID[root] = recID
	}
}

func (v *QueryView) findLocked(key string) string {
	p, ok := v.parent[key]
	if !ok {
		v.parent[key] = key
		return key
	}
	if p == key {
		return key
	}
	root := v.findLocked(p)
	v.parent[key] = root // path compression
	return root
}

func (v *QueryView) unionLocked(a, b string) {
	ra, rb := v.findLocked(a), v.findLocked(b)
	if ra == rb {
		return
	}
	// Attach the lexicographically larger root under the smaller so the
	// surviving root is deterministic regardless of merge order.
	if rb < ra {
		ra, rb = rb, ra
	}
	v.parent[rb] = ra
	if id, ok := v.minID[rb]; ok {
		if cur, ok2 := v.minID[ra]; !ok2 || id < cur {
			v.minID[ra] = id
		}
		delete(v.minID, rb)
	}
	if n, ok := v.members[rb]; ok {
		v.members[ra] += n
		delete(v.members, rb)
	}
}

// campaignLocked returns the record's campaign label.
func (v *QueryView) campaignLocked(r queryRec) string {
	key := "r:" + r.ID
	if r.Domain != "" {
		key = "d:" + r.Domain
	} else if r.Sender != "" {
		key = "s:" + r.Sender
	}
	return "c-" + v.minID[v.findLocked(key)]
}

// ReportsQuery filters /query/reports. Zero values mean "no constraint";
// Limit <= 0 selects the default of 100 (capped at MaxQueryLimit).
type ReportsQuery struct {
	Domain   string
	Sender   string
	Campaign string
	Since    time.Time // inclusive, against PostedAt
	Until    time.Time // exclusive, against PostedAt
	Limit    int
	// After resumes a paginated walk strictly after this (PostedAt, ID)
	// position — the decoded form of a ?cursor= token. Zero means "from
	// the start".
	After Cursor
}

// Cursor is an opaque pagination position in the (posted_at, id) order
// /query/reports returns. The encoded form is URL-safe base64 over
// "<RFC3339Nano posted_at>|<id>"; clients must treat it as opaque.
type Cursor struct {
	PostedAt time.Time
	ID       string
}

// IsZero reports whether the cursor is unset.
func (c Cursor) IsZero() bool { return c.PostedAt.IsZero() && c.ID == "" }

// Encode renders the cursor as its opaque token.
func (c Cursor) Encode() string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(c.PostedAt.UTC().Format(time.RFC3339Nano) + "|" + c.ID))
}

// DecodeCursor parses an opaque cursor token.
func DecodeCursor(token string) (Cursor, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return Cursor{}, fmt.Errorf("not base64: %w", err)
	}
	ts, id, ok := strings.Cut(string(raw), "|")
	if !ok {
		return Cursor{}, fmt.Errorf("malformed cursor payload")
	}
	t, err := time.Parse(time.RFC3339Nano, ts)
	if err != nil {
		return Cursor{}, fmt.Errorf("bad cursor timestamp: %w", err)
	}
	return Cursor{PostedAt: t, ID: id}, nil
}

// Query limits: the serving layer is for slicing, not bulk export.
const (
	DefaultQueryLimit = 100
	MaxQueryLimit     = 1000
)

// ReportsResult is the /query/reports response body.
type ReportsResult struct {
	TotalMatched int        `json:"total_matched"`
	Returned     int        `json:"returned"`
	Reports      []queryRec `json:"reports"`
	// NextCursor is the opaque token resuming after the last returned
	// report; empty when this page exhausted the matches. TotalMatched
	// counts matches after the request's cursor, so a full walk sums each
	// page's Returned, not any one TotalMatched.
	NextCursor string `json:"next_cursor,omitempty"`
}

// Reports answers a filtered slice of the indexed records, ordered by
// (posted_at, id) ascending, truncated to the query limit.
func (v *QueryView) Reports(q ReportsQuery) ReportsResult {
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultQueryLimit
	}
	if limit > MaxQueryLimit {
		limit = MaxQueryLimit
	}
	v.mu.Lock()
	defer v.mu.Unlock()

	var page []int
	total := 0
	if q.Domain == "" && q.Sender == "" {
		page, total = v.scanOrderLocked(q, limit)
	} else {
		matched := v.matchIndexedLocked(q)
		sort.Slice(matched, func(a, b int) bool { return v.lessLocked(matched[a], matched[b]) })
		total = len(matched)
		page = matched[:min(limit, total)]
	}
	res := ReportsResult{TotalMatched: total, Returned: len(page)}
	if total > len(page) {
		last := &v.recs[page[len(page)-1]]
		res.NextCursor = Cursor{PostedAt: last.PostedAt, ID: last.ID}.Encode()
	}
	// Label only the page: labelling every match would make an unfiltered
	// first page cost O(records) allocations.
	res.Reports = make([]queryRec, len(page))
	for j, i := range page {
		res.Reports[j] = v.recs[i]
		res.Reports[j].Campaign = v.campaignLocked(v.recs[i])
	}
	return res
}

// scanOrderLocked answers a query with no domain or sender filter from
// the sorted order: since, until and the cursor bound a contiguous span by
// binary search, so without a campaign filter the page is a subslice and
// the match count a subtraction.
func (v *QueryView) scanOrderLocked(q ReportsQuery, limit int) (page []int, total int) {
	lo, hi := 0, len(v.order)
	if !q.Since.IsZero() {
		lo = v.searchLocked(func(r *queryRec) bool { return !r.PostedAt.Before(q.Since) })
	}
	if !q.After.IsZero() {
		// Strictly after the cursor position in (posted_at, id) order — the
		// record the cursor encodes is the last one already served.
		lo = max(lo, v.searchLocked(func(r *queryRec) bool {
			if c := r.PostedAt.Compare(q.After.PostedAt); c != 0 {
				return c > 0
			}
			return r.ID > q.After.ID
		}))
	}
	if !q.Until.IsZero() {
		hi = v.searchLocked(func(r *queryRec) bool { return !r.PostedAt.Before(q.Until) })
	}
	if hi < lo {
		hi = lo
	}
	span := v.order[lo:hi]
	if q.Campaign == "" {
		return span[:min(limit, len(span))], len(span)
	}
	for _, i := range span {
		if v.campaignLocked(v.recs[i]) != q.Campaign {
			continue
		}
		if total < limit {
			page = append(page, i)
		}
		total++
	}
	return page, total
}

// matchIndexedLocked returns, unordered, the records a query with a
// domain or sender filter matches, narrowed by that filter's index.
func (v *QueryView) matchIndexedLocked(q ReportsQuery) []int {
	domain, sender := strings.ToLower(q.Domain), strings.ToLower(q.Sender)
	candidates := v.byDomain[domain]
	if domain == "" {
		candidates = v.bySender[sender]
	}
	var matched []int
	for _, i := range candidates {
		r := &v.recs[i]
		if domain != "" && r.Domain != domain {
			continue
		}
		if sender != "" && r.Sender != sender {
			continue
		}
		if !q.Since.IsZero() && r.PostedAt.Before(q.Since) {
			continue
		}
		if !q.Until.IsZero() && !r.PostedAt.Before(q.Until) {
			continue
		}
		if q.Campaign != "" && v.campaignLocked(*r) != q.Campaign {
			continue
		}
		if !q.After.IsZero() {
			if r.PostedAt.Before(q.After.PostedAt) {
				continue
			}
			if r.PostedAt.Equal(q.After.PostedAt) && r.ID <= q.After.ID {
				continue
			}
		}
		matched = append(matched, i)
	}
	return matched
}

// NameCount is one leaderboard row in the summary.
type NameCount struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// Summary is the /query/summary response body. Leaderboards are sorted by
// count descending, name ascending — deterministic, so two views over the
// same records (e.g. pre-kill and post-restart) serialize identically.
type Summary struct {
	Records      int         `json:"records"`
	Domains      int         `json:"domains"`
	Senders      int         `json:"senders"`
	Campaigns    int         `json:"campaigns"`
	TopDomains   []NameCount `json:"top_domains"`
	TopSenders   []NameCount `json:"top_senders"`
	TopCampaigns []NameCount `json:"top_campaigns"`
}

// DefaultSummaryTop is how many leaderboard rows Summarize returns when
// the caller does not say.
const DefaultSummaryTop = 10

// Summarize computes the dataset roll-up: distinct domain/sender/campaign
// counts plus top-N leaderboards for each.
func (v *QueryView) Summarize(top int) Summary {
	if top <= 0 {
		top = DefaultSummaryTop
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	s := Summary{
		Records:   len(v.recs),
		Domains:   len(v.byDomain),
		Senders:   len(v.bySender),
		Campaigns: len(v.members),
	}
	s.TopDomains = topOf(v.byDomain, top)
	s.TopSenders = topOf(v.bySender, top)
	// Every campaign root holds a distinct smallest record ID (a record's
	// "r:" key lives under exactly one root), so ranking roots by minID
	// ranks them by label, and only the returned rows need one built.
	t := newTopRows(top, len(v.members))
	for root, n := range v.members {
		t.offer(v.minID[root], n)
	}
	s.TopCampaigns = t.sorted()
	for i := range s.TopCampaigns {
		s.TopCampaigns[i].Name = "c-" + s.TopCampaigns[i].Name
	}
	return s
}

func topOf(index map[string][]int, top int) []NameCount {
	t := newTopRows(top, len(index))
	for name, idxs := range index {
		t.offer(name, len(idxs))
	}
	return t.sorted()
}

// topRows selects the n best leaderboard rows (count descending, name
// ascending) from a stream, in O(n) memory: a heap whose root is the worst
// row kept, so a candidate costs one comparison unless it displaces it.
type topRows struct {
	n    int
	rows []NameCount
}

func newTopRows(n, candidates int) *topRows {
	return &topRows{n: n, rows: make([]NameCount, 0, min(n, candidates))}
}

// rowBefore reports whether a ranks ahead of b on the leaderboard.
func rowBefore(a, b NameCount) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Name < b.Name
}

func (t *topRows) offer(name string, count int) {
	row := NameCount{Name: name, Count: count}
	h := t.rows
	if len(h) < t.n {
		h = append(h, row)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !rowBefore(h[parent], h[i]) {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
		t.rows = h
		return
	}
	if !rowBefore(row, h[0]) {
		return
	}
	h[0] = row
	for i := 0; ; {
		worst, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && rowBefore(h[worst], h[l]) {
			worst = l
		}
		if r < len(h) && rowBefore(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// sorted returns the kept rows in leaderboard order.
func (t *topRows) sorted() []NameCount {
	sort.Slice(t.rows, func(a, b int) bool { return rowBefore(t.rows[a], t.rows[b]) })
	return t.rows
}

// ReportsHandler serves GET /query/reports: parameters domain, sender,
// campaign, since/until (RFC 3339, inclusive/exclusive against the post
// time), limit (default 100, max 1000), cursor (opaque, from a previous
// response's next_cursor), and format (json, the default, or csv). Unknown
// parameters and malformed values are a 400, not a silent full-table
// answer.
func (v *QueryView) ReportsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		qs := r.URL.Query()
		for key := range qs {
			switch key {
			case "domain", "sender", "campaign", "since", "until", "limit", "cursor", "format":
			default:
				http.Error(w, fmt.Sprintf("unknown query parameter %q", key), http.StatusBadRequest)
				return
			}
		}
		q := ReportsQuery{
			Domain:   qs.Get("domain"),
			Sender:   qs.Get("sender"),
			Campaign: qs.Get("campaign"),
		}
		var err error
		if raw := qs.Get("since"); raw != "" {
			if q.Since, err = time.Parse(time.RFC3339, raw); err != nil {
				http.Error(w, fmt.Sprintf("bad since: %v", err), http.StatusBadRequest)
				return
			}
		}
		if raw := qs.Get("until"); raw != "" {
			if q.Until, err = time.Parse(time.RFC3339, raw); err != nil {
				http.Error(w, fmt.Sprintf("bad until: %v", err), http.StatusBadRequest)
				return
			}
		}
		if raw := qs.Get("limit"); raw != "" {
			if q.Limit, err = strconv.Atoi(raw); err != nil || q.Limit < 1 {
				http.Error(w, fmt.Sprintf("bad limit %q", raw), http.StatusBadRequest)
				return
			}
		}
		if raw := qs.Get("cursor"); raw != "" {
			if q.After, err = DecodeCursor(raw); err != nil {
				http.Error(w, fmt.Sprintf("bad cursor: %v", err), http.StatusBadRequest)
				return
			}
		}
		format := qs.Get("format")
		switch format {
		case "", "json":
			writeJSON(w, v.Reports(q))
		case "csv":
			writeReportsCSV(w, v.Reports(q))
		default:
			http.Error(w, fmt.Sprintf("bad format %q (json or csv)", format), http.StatusBadRequest)
		}
	})
}

// writeReportsCSV renders a reports page as CSV for analysis tooling. The
// pagination cursor rides in the X-Next-Cursor header, since CSV has no
// envelope to carry it.
func writeReportsCSV(w http.ResponseWriter, res ReportsResult) {
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	if res.NextCursor != "" {
		w.Header().Set("X-Next-Cursor", res.NextCursor)
	}
	cw := csv.NewWriter(w)
	_ = cw.Write([]string{"id", "forum", "posted_at", "domain", "sender", "sender_kind", "campaign", "scam_type", "brand", "text"})
	for _, r := range res.Reports {
		_ = cw.Write([]string{
			r.ID, r.Forum, r.PostedAt.UTC().Format(time.RFC3339Nano),
			r.Domain, r.Sender, r.SenderKind, r.Campaign, r.ScamType, r.Brand, r.Text,
		})
	}
	cw.Flush()
}

// SummaryHandler serves GET /query/summary: parameter top (default 10)
// sizes the leaderboards.
func (v *QueryView) SummaryHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		top := 0
		if raw := r.URL.Query().Get("top"); raw != "" {
			var err error
			if top, err = strconv.Atoi(raw); err != nil || top < 1 {
				http.Error(w, fmt.Sprintf("bad top %q", raw), http.StatusBadRequest)
				return
			}
		}
		writeJSON(w, v.Summarize(top))
	})
}

func writeJSON(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) //nolint:errcheck // network write; nothing to do on failure
}
