package report

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/recordlog"
	"github.com/smishkit/smishkit/internal/telemetry"
)

func batch(ids ...string) *core.Dataset {
	ds := &core.Dataset{
		PostsByForum:  map[corpus.Forum]int{corpus.ForumTwitter: len(ids)},
		ImagesByForum: map[corpus.Forum]int{},
		EmptyDropped:  1,
	}
	for _, id := range ids {
		ds.Records = append(ds.Records, core.Record{ID: id, Forum: corpus.ForumTwitter, Text: "msg " + id})
	}
	return ds
}

func TestProjectionMergesBatches(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewProjection(reg, 4)
	defer p.Close()
	ctx := context.Background()

	if err := p.Submit(ctx, batch("a", "b"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(ctx, batch("c"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	ds := p.Dataset()
	if len(ds.Records) != 3 {
		t.Fatalf("merged %d records, want 3", len(ds.Records))
	}
	if ds.PostsByForum[corpus.ForumTwitter] != 3 || ds.EmptyDropped != 2 {
		t.Fatalf("count maps not merged: %+v empty=%d", ds.PostsByForum, ds.EmptyDropped)
	}
	st := p.Stats()
	if st.Batches != 2 || st.Pending != 0 || st.Records != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BacklogSeconds != 0 {
		t.Fatalf("idle backlog = %v, want 0", st.BacklogSeconds)
	}
	if g := reg.Gauge("projection.backlog_seconds").Value(); g != 0 {
		t.Fatalf("backlog gauge = %d, want 0", g)
	}
	if c := reg.Counter("projection.batches").Value(); c != 2 {
		t.Fatalf("batches counter = %d, want 2", c)
	}

	// Snapshots are isolated from the live dataset.
	ds.Records[0].ID = "mutated"
	if p.Dataset().Records[0].ID != "a" {
		t.Fatal("Dataset returned an aliased snapshot")
	}
}

func TestProjectionCloseRejectsSubmit(t *testing.T) {
	p := NewProjection(nil, 2)
	if err := p.Submit(context.Background(), batch("x"), time.Now()); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if err := p.Submit(context.Background(), batch("y"), time.Now()); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
	// The pre-close batch still made it in.
	if n := len(p.Dataset().Records); n != 1 {
		t.Fatalf("post-close dataset has %d records, want 1", n)
	}
}

// TestProjectionSeedSharesReopenedLogRecords pins that a projection seeded
// from a reopened record log holds each replayed record once: it keeps the
// log's own batch slices, and serves the same dataset, summary and report
// order as a projection fed a flat copy of the same history.
func TestProjectionSeedSharesReopenedLogRecords(t *testing.T) {
	dir := t.TempDir()
	cfg := recordlog.Config{Dir: dir, CompactThreshold: 1 << 10} // several sealed segments
	l, err := recordlog.Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 8, 4, 8, 0, 0, 0, time.UTC)
	for i := 0; i < 12; i++ {
		b := batch(fmt.Sprintf("r%02d-a", i), fmt.Sprintf("r%02d-b", i))
		for j := range b.Records {
			b.Records[j].Domain = fmt.Sprintf("d%d.test", i%3)
			b.Records[j].PostedAt = at.Add(time.Duration(11-i) * time.Hour)
		}
		if _, err := l.Append(b, at); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = recordlog.Open(cfg, nil); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("reopened log has %d segments, want several", st.Segments)
	}

	seeded := NewProjection(nil, 0)
	defer seeded.Close()
	ds, batches := l.History()
	seeded.Seed(ds, batches)

	flat := NewProjection(nil, 0)
	defer flat.Close()
	copied, _ := l.History()
	for _, b := range batches {
		copied.Records = append(copied.Records, b...)
	}
	if err := flat.Submit(context.Background(), copied, at); err != nil {
		t.Fatal(err)
	}
	if err := flat.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	seeded.mu.Lock()
	shared := len(seeded.records) == len(batches)
	for i := 0; shared && i < len(batches); i++ {
		shared = &seeded.records[i][0] == &batches[i][0] && len(seeded.records[i]) == len(batches[i])
	}
	seeded.mu.Unlock()
	if !shared {
		t.Error("seeded projection copied the log's records instead of sharing its batches")
	}
	if got, want := seeded.Dataset(), flat.Dataset(); !reflect.DeepEqual(got, want) {
		t.Errorf("seeded dataset differs from a flat-copy seed:\n got %+v\nwant %+v", got, want)
	}
	if got, want := seeded.Query().Summarize(10), flat.Query().Summarize(10); !reflect.DeepEqual(got, want) {
		t.Errorf("seeded summary = %+v, want %+v", got, want)
	}
	q := ReportsQuery{Limit: 100}
	if got, want := seeded.Query().Reports(q), flat.Query().Reports(q); !reflect.DeepEqual(got, want) {
		t.Errorf("seeded reports = %+v, want %+v", got, want)
	}
	if st := seeded.Stats(); st.Batches != 1 || st.Pending != 0 || st.Records != 24 {
		t.Errorf("seeded Stats = %+v, want 1 batch, 0 pending, 24 records", st)
	}
}
