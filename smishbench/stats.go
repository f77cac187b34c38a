package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples and whether
// at least minBeyond samples lie beyond it. samples need not be sorted.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := sortedCopy(samples)
	i := rankIndex(n, q)
	return s[i], n-1-i >= minBeyond
}

// tail reports the q-quantile when the sample supports it, and otherwise
// the highest quantile that still has minBeyond samples beyond it (never
// below the median). It returns the value and the quantile actually used,
// so a printed "p95" over a short sample says what it really is.
func tail(samples []float64, q float64) (float64, float64) {
	if v, ok := percentile(samples, q); ok || len(samples) == 0 {
		return v, q
	}
	n := len(samples)
	qq := math.Max(0.5, float64(n-minBeyond)/float64(n))
	s := sortedCopy(samples)
	return s[rankIndex(n, qq)], qq
}

func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func median(samples []float64) float64 {
	v, _ := tail(samples, 0.5)
	return v
}

// interval is a closed span of time in nanoseconds since a trace epoch.
type interval struct{ start, end int64 }

// unionLength is the total length covered by ivs after clipping each to
// [lo, hi]; overlapping intervals count once.
func unionLength(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
	var total int64
	var cur interval
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			cur, open = iv, true
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the union of its children's
// intervals within it.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - unionLength(children, parent.start, parent.end)
}

// scheduled is one open-loop item: when it was due, when the generator
// actually sent it, and when its answer came back.
type scheduled struct {
	due, sent, done time.Time
}

// latency is measured from the due time, so a stalled generator charges
// its stall to every item queued behind it.
func (s scheduled) latency() time.Duration { return s.done.Sub(s.due) }

// late is how far behind schedule the generator sent the item.
func (s scheduled) late() time.Duration {
	if d := s.sent.Sub(s.due); d > 0 {
		return d
	}
	return 0
}

// waveLatencies measures each injected wave from its due time until the
// last of its records became queryable. records maps a wave number to the
// IDs its records carry in the final dataset; visible maps a record ID to
// the time it became queryable. A wave with no records, or with a record
// whose time is unknown, is returned in missing instead.
func waveLatencies(due map[int]time.Time, records map[int][]string, visible map[string]time.Time) (lat map[int]time.Duration, missing []int) {
	lat = make(map[int]time.Duration, len(due))
	waves := make([]int, 0, len(due))
	for k := range due {
		waves = append(waves, k)
	}
	sort.Ints(waves)
	for _, k := range waves {
		ids := records[k]
		if len(ids) == 0 {
			missing = append(missing, k)
			continue
		}
		var last time.Time
		ok := true
		for _, id := range ids {
			t, seen := visible[id]
			if !seen {
				ok = false
				break
			}
			if t.After(last) {
				last = t
			}
		}
		if !ok {
			missing = append(missing, k)
			continue
		}
		lat[k] = last.Sub(due[k])
	}
	return lat, missing
}

// injectedWave parses the wave number out of an injected record ID
// ("inj<k>-..."); ok is false for seed-world records.
func injectedWave(id string) (int, bool) {
	rest, found := strings.CutPrefix(id, "inj")
	if !found {
		return 0, false
	}
	num, _, found := strings.Cut(rest, "-")
	if !found {
		return 0, false
	}
	k, err := strconv.Atoi(num)
	return k, err == nil && k > 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
