package forum

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/smishkit/smishkit/internal/corpus"
)

// ctxType keeps collector signatures compact.
type ctxType = context.Context

// Collector is one forum's collection client. Collect streams every report
// into sink; returning an error from sink aborts the run.
type Collector interface {
	Name() corpus.Forum
	Collect(ctx context.Context, sink func(RawReport) error) error
}

// CollectAll drains every collector sequentially (the paper's collectors
// ran as independent jobs; sequential keeps per-forum rate limits simple)
// and returns all reports plus per-forum counts.
func CollectAll(ctx context.Context, collectors []Collector) ([]RawReport, map[corpus.Forum]int, error) {
	var all []RawReport
	counts := make(map[corpus.Forum]int)
	for _, c := range collectors {
		err := c.Collect(ctx, func(r RawReport) error {
			all = append(all, r)
			counts[c.Name()]++
			return nil
		})
		if err != nil {
			return all, counts, fmt.Errorf("forum: collect %s: %w", c.Name(), err)
		}
	}
	return all, counts, nil
}

// mediaWidth is how many downloads one page of results keeps in flight.
const mediaWidth = 8

// fetched is one prefetched download; done closes once data/err are set.
type fetched struct {
	data []byte
	err  error
	done chan struct{}
}

// prefetch runs fetch(ctx, i) for every i in [0, n) on up to mediaWidth
// goroutines, claiming indexes in ascending order so the earliest results
// land first. The caller waits on each result's done channel in its own
// order. stop cancels whatever is still outstanding and returns once every
// goroutine has exited; it must be called exactly once.
func prefetch(ctx context.Context, n int, fetch func(ctx context.Context, i int) ([]byte, error)) (results []fetched, stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	results = make([]fetched, n)
	for i := range results {
		results[i].done = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(mediaWidth, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := &results[i]
				if r.err = ctx.Err(); r.err == nil {
					r.data, r.err = fetch(ctx, i)
				}
				close(r.done)
			}
		}()
	}
	return results, func() {
		cancel()
		wg.Wait()
	}
}
