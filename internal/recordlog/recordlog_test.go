package recordlog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/extract"
	"github.com/smishkit/smishkit/internal/telemetry"
)

func testRecord(id string) core.Record {
	return core.Record{
		ID:        id,
		Forum:     corpus.ForumTwitter,
		Text:      "your parcel is held, pay at example.test",
		Domain:    "example.test",
		SenderRaw: "+15550001111",
		Timestamp: extract.ParsedTime{Time: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC), HasDate: true},
	}
}

func testBatch(ids ...string) *core.Dataset {
	ds := &core.Dataset{
		PostsByForum:  map[corpus.Forum]int{corpus.ForumTwitter: len(ids)},
		ImagesByForum: map[corpus.Forum]int{},
	}
	for _, id := range ids {
		ds.Records = append(ds.Records, testRecord(id))
	}
	return ds
}

func ids(ds *core.Dataset) []string {
	out := make([]string, 0, len(ds.Records))
	for _, r := range ds.Records {
		out = append(out, r.ID)
	}
	sort.Strings(out)
	return out
}

func mustOpen(t *testing.T, dir string, reg *telemetry.Registry) *Log {
	t.Helper()
	l, err := Open(Config{Dir: dir}, reg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// dataset flattens the log's history into one dataset.
func dataset(l *Log) *core.Dataset {
	ds, batches := l.History()
	for _, b := range batches {
		ds.Records = append(ds.Records, b...)
	}
	return ds
}

// TestAppendReplayRoundTrip pins the basic contract: records appended
// across several rounds come back identical (records, totals, injects)
// from a fresh Open of the same directory.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	at := time.Date(2026, 8, 2, 9, 0, 0, 0, time.UTC)
	if _, err := l.Append(testBatch("a", "b"), at); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.AppendInject(core.InjectSpec{Seed: 7, Messages: 10}, at); err != nil {
		t.Fatalf("AppendInject: %v", err)
	}
	if _, err := l.Append(testBatch("c"), at.Add(time.Second)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	want := dataset(l)
	// Close without relying on its snapshot: re-open must replay the log.
	if err := l.f.Close(); err != nil {
		t.Fatalf("close file: %v", err)
	}

	l2 := mustOpen(t, dir, nil)
	defer l2.Close()
	got := dataset(l2)
	if !reflect.DeepEqual(ids(got), ids(want)) {
		t.Fatalf("replayed IDs = %v, want %v", ids(got), ids(want))
	}
	if got.PostsByForum[corpus.ForumTwitter] != 3 {
		t.Fatalf("replayed posts = %d, want 3", got.PostsByForum[corpus.ForumTwitter])
	}
	inj := l2.Injects()
	if len(inj) != 1 || inj[0].Seed != 7 || inj[0].Messages != 10 {
		t.Fatalf("replayed injects = %+v", inj)
	}
	if st := l2.Stats(); st.Replayed != 3 {
		t.Fatalf("Stats.Replayed = %d, want 3", st.Replayed)
	}
}

// TestAppendDedupsByRecordID pins the crash-window protection: a batch
// whose records are already logged writes nothing and returns an empty
// fresh set, so neither the log nor the projection double-counts.
func TestAppendDedupsByRecordID(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	l := mustOpen(t, dir, reg)
	defer l.Close()
	at := time.Now()
	if _, err := l.Append(testBatch("a", "b"), at); err != nil {
		t.Fatalf("Append: %v", err)
	}
	sizeBefore := l.Stats().LogBytes

	// Same round again — the re-collection after a crash between append
	// and cursor save.
	fresh, err := l.Append(testBatch("a", "b"), at)
	if err != nil {
		t.Fatalf("replay Append: %v", err)
	}
	if len(fresh.Records) != 0 {
		t.Fatalf("replayed batch returned %d fresh records, want 0", len(fresh.Records))
	}
	st := l.Stats()
	if st.LogBytes != sizeBefore {
		t.Fatalf("replayed batch grew the log: %d -> %d", sizeBefore, st.LogBytes)
	}
	if st.Deduped != 2 {
		t.Fatalf("Stats.Deduped = %d, want 2", st.Deduped)
	}
	if ds := dataset(l); len(ds.Records) != 2 || ds.PostsByForum[corpus.ForumTwitter] != 2 {
		t.Fatalf("dataset after replayed batch: records=%d posts=%d, want 2/2",
			len(ds.Records), ds.PostsByForum[corpus.ForumTwitter])
	}

	// Mixed batch (partial overlap) keeps only the fresh record.
	fresh, err = l.Append(testBatch("b", "c"), at.Add(time.Second))
	if err != nil {
		t.Fatalf("mixed Append: %v", err)
	}
	if got := ids(fresh); !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("mixed batch fresh IDs = %v, want [c]", got)
	}
}

// TestTornTailTruncatedOnOpen pins the crash-mid-append path: a final
// frame cut off mid-payload is discarded on open, counted in
// recordlog.truncated_tail, and the log is usable for appends again.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	if _, err := l.Append(testBatch("a", "b"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := l.Append(testBatch("c"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	intact := l.Stats().LogBytes
	if err := l.f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Tear the final frame: keep its header and half its payload.
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	if int64(len(data)) != intact {
		t.Fatalf("log size = %d, stats said %d", len(data), intact)
	}
	// Find the second frame's start by decoding the first header.
	first := int(binary.LittleEndian.Uint32(data[1:5])) + frameHeader
	torn := first + frameHeader + (len(data)-first-frameHeader)/2
	if err := os.WriteFile(path, data[:torn], 0o644); err != nil {
		t.Fatalf("tear log: %v", err)
	}

	reg := telemetry.NewRegistry()
	l2 := mustOpen(t, dir, reg)
	defer l2.Close()
	if got := ids(dataset(l2)); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("after torn tail, IDs = %v, want [a b]", got)
	}
	st := l2.Stats()
	if st.TruncatedTail != 1 {
		t.Fatalf("Stats.TruncatedTail = %d, want 1", st.TruncatedTail)
	}
	if got := reg.Snapshot().CounterValue("recordlog.truncated_tail"); got != 1 {
		t.Fatalf("recordlog.truncated_tail counter = %d, want 1", got)
	}
	if int64(first) != st.LogBytes {
		t.Fatalf("log not truncated to frame boundary: size=%d want=%d", st.LogBytes, first)
	}

	// The torn record can land again — its ID was never committed.
	if _, err := l2.Append(testBatch("c"), time.Now()); err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
	if got := ids(dataset(l2)); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("after re-append, IDs = %v", got)
	}
}

// TestCorruptFrameRejectedOnOpen pins the bit-rot path: a frame whose
// payload no longer matches its CRC is rejected together with everything
// after it, counted in recordlog.corrupt_frames.
func TestCorruptFrameRejectedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	if _, err := l.Append(testBatch("a"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := l.Append(testBatch("b"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := l.Append(testBatch("c"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Flip one payload byte inside the SECOND frame; its CRC now lies.
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	first := int(binary.LittleEndian.Uint32(data[1:5])) + frameHeader
	data[first+frameHeader+4] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt log: %v", err)
	}

	reg := telemetry.NewRegistry()
	l2 := mustOpen(t, dir, reg)
	defer l2.Close()
	// Frame 2 and the (valid) frame 3 behind it are both gone: nothing
	// past a corrupt frame can be trusted.
	if got := ids(dataset(l2)); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("after corrupt frame, IDs = %v, want [a]", got)
	}
	st := l2.Stats()
	if st.CorruptFrames != 1 {
		t.Fatalf("Stats.CorruptFrames = %d, want 1", st.CorruptFrames)
	}
	if got := reg.Snapshot().CounterValue("recordlog.corrupt_frames"); got != 1 {
		t.Fatalf("recordlog.corrupt_frames counter = %d, want 1", got)
	}
	if int64(first) != st.LogBytes {
		t.Fatalf("log not truncated at corrupt frame: size=%d want=%d", st.LogBytes, first)
	}
}

// TestGarbageHeaderRejected pins the scribbled-header path: an absurd
// length field is treated as corruption, not as a 3 GiB allocation.
func TestGarbageHeaderRejected(t *testing.T) {
	dir := t.TempDir()
	var hdr [frameHeader]byte
	hdr[0] = kindBatch
	binary.LittleEndian.PutUint32(hdr[1:5], maxFrame+1)
	if err := os.WriteFile(filepath.Join(dir, logName), hdr[:], 0o644); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	l := mustOpen(t, dir, nil)
	defer l.Close()
	if st := l.Stats(); st.CorruptFrames != 1 || st.LogBytes != 0 {
		t.Fatalf("garbage header: corrupt=%d size=%d, want 1/0", st.CorruptFrames, st.LogBytes)
	}
}

// TestUnknownKindRejected pins forward-compatibility handling: a frame
// kind this build does not know is corruption (the log is private to one
// binary version), truncated like any other damage.
func TestUnknownKindRejected(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"seq":1}`)
	var hdr [frameHeader]byte
	hdr[0] = 99
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(filepath.Join(dir, logName), append(hdr[:], payload...), 0o644); err != nil {
		t.Fatalf("write frame: %v", err)
	}
	l := mustOpen(t, dir, nil)
	defer l.Close()
	if st := l.Stats(); st.CorruptFrames != 1 || st.LogBytes != 0 {
		t.Fatalf("unknown kind: corrupt=%d size=%d, want 1/0", st.CorruptFrames, st.LogBytes)
	}
}

// TestSegmentsPlusTailEqualsUninterrupted pins the replay contract: a
// directory holding sealed segments plus an active tail replays to exactly
// the dataset, injects and totals an uninterrupted log yields.
func TestSegmentsPlusTailEqualsUninterrupted(t *testing.T) {
	at := time.Date(2026, 8, 3, 10, 0, 0, 0, time.UTC)
	batches := [][]string{{"a", "b"}, {"c"}, {"d", "e"}, {"f"}, {"g"}}
	write := func(dir string, sealAfter map[int]bool) {
		l := mustOpen(t, dir, nil)
		for i, b := range batches {
			if _, err := l.Append(testBatch(b...), at.Add(time.Duration(i)*time.Second)); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if i == 2 {
				if err := l.AppendInject(core.InjectSpec{Seed: 5, Messages: 3}, at); err != nil {
					t.Fatalf("AppendInject: %v", err)
				}
			}
			if sealAfter[i] {
				if err := l.Snapshot(); err != nil {
					t.Fatalf("seal: %v", err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	plain, sealed := t.TempDir(), t.TempDir()
	write(plain, nil)
	write(sealed, map[int]bool{0: true, 2: true, 3: true})

	lp := mustOpen(t, plain, nil)
	defer lp.Close()
	ls := mustOpen(t, sealed, nil)
	defer ls.Close()
	if st := ls.Stats(); st.Segments != 3 || st.LogBytes == 0 {
		t.Fatalf("sealed dir: segments=%d log=%dB, want 3 segments and a non-empty tail", st.Segments, st.LogBytes)
	}
	want, got := dataset(lp), dataset(ls)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("segments+tail replay differs from uninterrupted log:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(ls.Injects(), lp.Injects()) {
		t.Errorf("injects = %+v, want %+v", ls.Injects(), lp.Injects())
	}
	if ls.seq != lp.seq {
		t.Errorf("seq = %d, want %d", ls.seq, lp.seq)
	}
}

// TestCompactionTruncatesLogAndSurvivesReopen pins the seal: crossing
// CompactThreshold renames records.log to a segment and leaves an empty
// records.log, and a reopen of the sealed directory still holds
// everything.
func TestCompactionTruncatesLogAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	l, err := Open(Config{Dir: dir, CompactThreshold: 1}, reg) // every append seals
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(testBatch("a", "b"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	st := l.Stats()
	if st.Compactions != 1 || st.Segments != 1 || st.SegmentBytes == 0 {
		t.Fatalf("after seal: compactions=%d segments=%d segment_bytes=%d, want 1/1/>0",
			st.Compactions, st.Segments, st.SegmentBytes)
	}
	if st.LogBytes != 0 {
		t.Fatalf("records.log not emptied by the seal: %d bytes", st.LogBytes)
	}
	if fi, err := os.Stat(filepath.Join(dir, logName)); err != nil || fi.Size() != 0 {
		t.Fatalf("records.log on disk after seal: %v, %v", fi, err)
	}
	if fi, err := os.Stat(filepath.Join(dir, segmentName(1))); err != nil || fi.Size() != st.SegmentBytes {
		t.Fatalf("segment on disk after seal: %v, %v, want %d bytes", fi, err, st.SegmentBytes)
	}
	if got := reg.Snapshot().CounterValue("recordlog.compactions"); got != 1 {
		t.Fatalf("recordlog.compactions counter = %d, want 1", got)
	}
	if _, err := l.Append(testBatch("c"), time.Now()); err != nil {
		t.Fatalf("post-seal Append: %v", err)
	}
	if err := l.Snapshot(); err != nil { // records.log is empty: no segment
		t.Fatalf("Snapshot of an empty records.log: %v", err)
	}
	if st := l.Stats(); st.Compactions != 2 || st.Segments != 2 {
		t.Fatalf("empty seal wrote a segment: compactions=%d segments=%d, want 2/2", st.Compactions, st.Segments)
	}
	l.f.Close()

	l2, err := Open(Config{Dir: dir, CompactThreshold: 1}, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := ids(dataset(l2)); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("after seals+reopen, IDs = %v", got)
	}
	if st := l2.Stats(); st.Segments != 2 || st.Replayed != 3 {
		t.Fatalf("reopen: segments=%d replayed=%d, want 2/3", st.Segments, st.Replayed)
	}
	if _, err := l2.Append(testBatch("d"), time.Now()); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if st := l2.Stats(); st.Segments != 3 {
		t.Fatalf("seal after reopen: segments=%d, want 3", st.Segments)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(3))); err != nil {
		t.Fatalf("seal after reopen did not continue the numbering: %v", err)
	}
}

// TestSegmentBytesEqualAppendedFrames pins that sealing re-encodes
// nothing: after many seals the directory holds only records.log and
// segments, its bytes are exactly the frames appended, one per Append,
// and every record appears in exactly one frame.
func TestSegmentBytesEqualAppendedFrames(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, CompactThreshold: 2 << 10}, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const rounds = 60
	var appended int64
	for i := 0; i < rounds; i++ {
		before := l.Stats()
		if _, err := l.Append(testBatch(fmt.Sprintf("r%03d-a", i), fmt.Sprintf("r%03d-b", i)), time.Now()); err != nil {
			t.Fatalf("Append: %v", err)
		}
		after := l.Stats()
		appended += after.LogBytes + after.SegmentBytes - before.LogBytes - before.SegmentBytes
	}
	if st := l.Stats(); st.Compactions < 5 {
		t.Fatalf("only %d seals; the test needs several", st.Compactions)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	frames := 0
	seen := map[string]int{}
	for _, e := range entries {
		if e.Name() != logName && !strings.HasSuffix(e.Name(), ".seg") {
			t.Errorf("unexpected file %s in the log directory", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(data))
		for off := 0; off < len(data); frames++ {
			n := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
			var fr batchFrame
			if err := json.Unmarshal(data[off+frameHeader:off+frameHeader+n], &fr); err != nil {
				t.Fatalf("%s: frame at %d: %v", e.Name(), off, err)
			}
			for _, r := range fr.Records {
				seen[r.ID]++
			}
			off += frameHeader + n
		}
	}
	if total != appended {
		t.Errorf("directory holds %d bytes, appends wrote %d", total, appended)
	}
	if frames != rounds {
		t.Errorf("directory holds %d frames, want one per append (%d)", frames, rounds)
	}
	if len(seen) != 2*rounds {
		t.Errorf("directory holds %d distinct records, want %d", len(seen), 2*rounds)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("record %s encoded %d times", id, n)
		}
	}
}

// TestDuplicatedFrameReplayIsIdempotent pins why frames carry cumulative
// totals: replaying a log that contains the same round twice (the crash
// window re-append, with the dedup map lost in between) must not inflate
// records or totals.
func TestDuplicatedFrameReplayIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	if _, err := l.Append(testBatch("a", "b"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	l.f.Close()

	// Duplicate the single frame byte-for-byte with a bumped Seq — what a
	// re-collected round would have written had the dedup map been empty.
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	var fr batchFrame
	if err := json.Unmarshal(data[frameHeader:], &fr); err != nil {
		t.Fatalf("decode frame: %v", err)
	}
	fr.Seq++
	payload, err := json.Marshal(fr)
	if err != nil {
		t.Fatalf("encode frame: %v", err)
	}
	var hdr [frameHeader]byte
	hdr[0] = kindBatch
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	data = append(data, hdr[:]...)
	data = append(data, payload...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write duplicated log: %v", err)
	}

	l2 := mustOpen(t, dir, nil)
	defer l2.Close()
	ds := dataset(l2)
	if got := ids(ds); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("duplicated frame inflated records: %v", got)
	}
	if ds.PostsByForum[corpus.ForumTwitter] != 2 {
		t.Fatalf("duplicated frame inflated totals: posts=%d, want 2", ds.PostsByForum[corpus.ForumTwitter])
	}
}

// TestCorruptSegmentIsAnError pins that damage inside a sealed segment —
// torn or corrupt alike — refuses to open rather than dropping committed
// history that later segments build on.
func TestCorruptSegmentIsAnError(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"crc flip":  func(b []byte) []byte { b[frameHeader+3] ^= 0xFF; return b },
		"torn tail": func(b []byte) []byte { return b[:len(b)-5] },
	} {
		dir := t.TempDir()
		l, err := Open(Config{Dir: dir, CompactThreshold: 1}, nil)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if _, err := l.Append(testBatch("a"), time.Now()); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if _, err := l.Append(testBatch("b"), time.Now()); err != nil {
			t.Fatalf("Append: %v", err)
		}
		l.Close()
		path := filepath.Join(dir, segmentName(1))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		if err := os.WriteFile(path, damage(data), 0o644); err != nil {
			t.Fatalf("damage segment: %v", err)
		}
		if _, err := Open(Config{Dir: dir}, nil); err == nil || !strings.Contains(err.Error(), segmentName(1)) {
			t.Errorf("%s: Open over a damaged segment returned %v, want an error naming it", name, err)
		}
	}
}

// TestLegacySnapshotRefused pins that a directory an earlier build left a
// snapshot.json in is refused with an error naming the file, never opened
// empty.
func TestLegacySnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, legacySnapshotName), []byte(`{"seq":1,"records":[]}`), 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	if _, err := Open(Config{Dir: dir}, nil); err == nil || !strings.Contains(err.Error(), legacySnapshotName) {
		t.Fatalf("Open over a legacy snapshot returned %v, want an error naming %s", err, legacySnapshotName)
	}
}

// TestSegmentNamesCheckedOnOpen pins that a file named like a segment but
// not as a seal names it, and a gap in the segment sequence, are errors
// naming the file, not silently skipped history.
func TestSegmentNamesCheckedOnOpen(t *testing.T) {
	for _, tc := range []struct {
		files []string
		want  string
	}{
		{[]string{"records-1.seg"}, "records-1.seg"},
		{[]string{"records--00001.seg"}, "records--00001.seg"},
		{[]string{segmentName(0)}, segmentName(0)},
		{[]string{segmentName(1), segmentName(3)}, segmentName(2)},
	} {
		dir := t.TempDir()
		for _, name := range tc.files {
			if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Open(Config{Dir: dir}, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("segments %v: Open returned %v, want an error naming %s", tc.files, err, tc.want)
		}
	}
}

// TestCloseIsIdempotentAndReopens pins that Close needs no final write:
// it is idempotent, leaves no file but records.log, and a reopen holds
// everything appended.
func TestCloseIsIdempotentAndReopens(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	if _, err := l.Append(testBatch("a"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append(testBatch("b"), time.Now()); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != logName {
		t.Fatalf("directory after Close: %v, %v; want only %s", entries, err, logName)
	}
	l2 := mustOpen(t, dir, nil)
	defer l2.Close()
	if got := ids(dataset(l2)); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("after Close+reopen, IDs = %v", got)
	}
}
