// Package recordlog makes the enriched dataset durable. The service daemon
// loses every in-memory structure on exit; cursors (internal/checkpoint)
// already let a restarted daemon resume *collection* without duplicates,
// but the enriched records themselves had to be rebuilt by re-enriching
// the world. This package closes that gap with an append-only record log
// kept as sealed segments plus one active file:
//
//   - Every committed round appends one length-prefixed, CRC-framed batch
//     of enriched records to the active file, records.log, fsynced before
//     the round's cursors are saved. A crash between the append and the
//     cursor save therefore re-collects (and re-enriches) at most one
//     round — and the log deduplicates the re-appended records by ID, so
//     the dataset never double-counts.
//   - Injected load waves (core.InjectSpec) are journaled in the same log.
//     A restarted process replays them into its freshly booted simulation,
//     so the forum servers regain the injected posts the durable cursors
//     already point past.
//   - When records.log outgrows CompactThreshold it is sealed: renamed to
//     records-<seq>.seg (zero-padded, numbered in seal order), replaced by
//     a fresh records.log, and the directory fsynced. A seal re-encodes
//     nothing, so every committed record is encoded exactly once and a
//     round's commit costs O(batch) however large the dataset grows.
//     Open replays the sealed segments in order, then records.log, with
//     one frame parser; restart cost is one decode of every committed
//     frame.
//
// Frame format, little-endian:
//
//	[1 byte kind][4 byte payload length][4 byte IEEE CRC32 of payload][payload]
//
// Payloads are JSON. Batch frames carry the round's *fresh* records plus
// the cumulative curation totals after the frame, so replaying a log with
// duplicated frames (the crash window above) still reconstructs exact
// totals: records dedup by ID and totals are absolute.
//
// On open, a torn final frame of records.log (the write the crash
// interrupted) is truncated away and counted in recordlog.truncated_tail;
// a frame whose CRC does not match its payload is rejected — it and
// everything after it are truncated, counted in recordlog.corrupt_frames —
// because nothing beyond a corrupt frame can be trusted. A sealed segment
// was whole and fsynced when it was sealed, so any damage inside one is an
// Open error: dropping its tail would silently lose history that later
// segments build on.
package recordlog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Config tunes the durable record log (the facade's Options.Durability).
type Config struct {
	// Dir holds records.log and the sealed records-<seq>.seg segments;
	// created if missing.
	Dir string
	// CompactThreshold is the records.log size in bytes at which it is
	// sealed into a segment and a fresh records.log started (default 8 MiB).
	CompactThreshold int64
}

func (c Config) withDefaults() Config {
	if c.CompactThreshold == 0 {
		c.CompactThreshold = 8 << 20
	}
	return c
}

// Stats is the log's scoreboard, mirrored into the telemetry registry
// under "recordlog.*".
type Stats struct {
	// Appends counts frames written (record batches plus inject journal
	// entries) since open.
	Appends int64 `json:"appends"`
	// Replayed counts records restored on open (segments + records.log).
	Replayed int64 `json:"replayed"`
	// Deduped counts appended records dropped because their ID was already
	// in the log — the crash-window double-count protection firing.
	Deduped int64 `json:"deduped"`
	// Compactions counts segment seals since open.
	Compactions int64 `json:"compactions"`
	// TruncatedTail counts torn final frames discarded on open (0 or 1).
	TruncatedTail int64 `json:"truncated_tail"`
	// CorruptFrames counts CRC-mismatched or undecodable frames rejected
	// on open.
	CorruptFrames int64 `json:"corrupt_frames"`
	// Records is the dataset size the log currently holds.
	Records int `json:"records"`
	// Injects is the journaled injection count (replayed + new).
	Injects int `json:"injects"`
	// LogBytes is the size of records.log, the active file.
	LogBytes int64 `json:"log_bytes"`
	// Segments counts the sealed segments in the directory and
	// SegmentBytes their total size.
	Segments     int   `json:"segments"`
	SegmentBytes int64 `json:"segment_bytes"`
}

// Frame kinds.
const (
	kindBatch  = 1 // one committed round's fresh records + cumulative totals
	kindInject = 2 // one journaled core.InjectSpec
)

const (
	logName     = "records.log"
	frameHeader = 1 + 4 + 4 // kind + length + crc
	// maxFrame bounds a single frame payload; anything larger in a header
	// is corruption, not data (the largest real batch is a few MiB).
	maxFrame = 256 << 20
	// legacySnapshotName is the whole-dataset snapshot earlier builds kept
	// beside the log; this build cannot read it.
	legacySnapshotName = "snapshot.json"
)

// segmentName is the file a seal renames records.log to; the zero-padded
// sequence keeps directory listings in seal order.
func segmentName(seq int) string { return fmt.Sprintf("records-%06d.seg", seq) }

// totals is the cumulative curation bookkeeping after a frame. Values are
// absolute, not deltas, so re-applied frames cannot inflate them.
type totals struct {
	PostsByForum   map[corpus.Forum]int `json:"posts_by_forum,omitempty"`
	ImagesByForum  map[corpus.Forum]int `json:"images_by_forum,omitempty"`
	DecoysRejected int                  `json:"decoys_rejected"`
	EmptyDropped   int                  `json:"empty_dropped"`
}

func cloneForumMap(m map[corpus.Forum]int) map[corpus.Forum]int {
	out := make(map[corpus.Forum]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// batchFrame is the payload of a kindBatch frame.
type batchFrame struct {
	Seq         uint64        `json:"seq"`
	CommittedAt time.Time     `json:"committed_at"`
	Records     []core.Record `json:"records"`
	Totals      totals        `json:"totals"`
}

// injectFrame is the payload of a kindInject frame.
type injectFrame struct {
	Seq  uint64          `json:"seq"`
	At   time.Time       `json:"at"`
	Spec core.InjectSpec `json:"spec"`
}

// counters bundles the telemetry instruments the log maintains.
type counters struct {
	appends, replayed, deduped, compactions *telemetry.Counter
	truncatedTail, corruptFrames            *telemetry.Counter
	logBytes                                *telemetry.Gauge
}

func newCounters(reg *telemetry.Registry) counters {
	return counters{
		appends:       reg.Counter("recordlog.appends"),
		replayed:      reg.Counter("recordlog.replayed"),
		deduped:       reg.Counter("recordlog.deduped"),
		compactions:   reg.Counter("recordlog.compactions"),
		truncatedTail: reg.Counter("recordlog.truncated_tail"),
		corruptFrames: reg.Counter("recordlog.corrupt_frames"),
		logBytes:      reg.Gauge("recordlog.log_bytes"),
	}
}

// Log is the durable record log: single-writer, safe for concurrent use.
type Log struct {
	cfg Config
	ctr counters

	mu       sync.Mutex
	f        *os.File // records.log
	size     int64
	seq      uint64
	seen     map[string]struct{}
	batches  [][]core.Record // committed records, one slice per batch, never copied or regrown
	nrecords int
	totals   totals
	injects  []core.InjectSpec
	stats    Stats
	closed   bool
	closeErr error
}

// Open opens (creating if needed) the log directory and replays it: every
// sealed segment in order, then records.log. Damage inside a sealed
// segment is an error; in records.log a torn final frame is truncated and
// a corrupt frame rejected with everything after it. Records are deduped
// by ID and totals taken from the last valid frame. reg may be nil
// (metrics go to a private registry).
func Open(cfg Config, reg *telemetry.Registry) (*Log, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("recordlog: Config.Dir is empty")
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("recordlog: create dir: %w", err)
	}
	// Starting without the history a legacy snapshot holds would let the
	// daemon serve, and go on logging, a dataset its cursors contradict.
	legacy := filepath.Join(cfg.Dir, legacySnapshotName)
	if _, err := os.Stat(legacy); err == nil {
		return nil, fmt.Errorf("recordlog: %s is a snapshot written by an earlier build; this build keeps sealed segments and cannot read it", legacy)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("recordlog: stat %s: %w", legacy, err)
	}
	l := &Log{
		cfg:  cfg,
		ctr:  newCounters(reg),
		seen: make(map[string]struct{}),
		totals: totals{
			PostsByForum:  make(map[corpus.Forum]int),
			ImagesByForum: make(map[corpus.Forum]int),
		},
	}
	nsegs, err := countSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for seq := 1; seq <= nsegs; seq++ {
		if err := l.replaySegment(seq); err != nil {
			return nil, err
		}
	}
	if err := l.openActive(); err != nil {
		return nil, err
	}
	// openActive may have just created records.log (a fresh directory, or
	// a crash between a seal's rename and its create): make the name
	// durable before any append relies on it.
	if err := syncDir(cfg.Dir); err != nil {
		l.f.Close()
		return nil, fmt.Errorf("recordlog: sync log dir: %w", err)
	}
	l.stats.Replayed = int64(l.nrecords)
	l.ctr.replayed.Add(l.stats.Replayed)
	l.ctr.logBytes.Set(l.size)
	return l, nil
}

// countSegments returns how many sealed segments the directory holds;
// they are numbered 1..n. A file that looks like a segment but does
// not carry a name this package writes, and a gap in the sequence, are
// errors rather than something to skip: either may mean lost history.
func countSegments(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("recordlog: list segments: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "records-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "records-"), ".seg"))
		if err != nil || seq <= 0 || segmentName(seq) != name {
			return 0, fmt.Errorf("recordlog: unexpected segment file %s", filepath.Join(dir, name))
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for i, seq := range seqs {
		if seq != i+1 {
			return 0, fmt.Errorf("recordlog: segment %s is missing", filepath.Join(dir, segmentName(i+1)))
		}
	}
	return len(seqs), nil
}

// replaySegment replays one sealed segment, which must be whole frames
// end to end.
func (l *Log) replaySegment(seq int) error {
	path := filepath.Join(l.cfg.Dir, segmentName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("recordlog: read segment: %w", err)
	}
	if valid, _, err := l.replay(data); err != nil {
		return fmt.Errorf("recordlog: sealed segment %s is damaged at byte %d: %w", path, valid, err)
	}
	l.stats.Segments++
	l.stats.SegmentBytes += int64(len(data))
	return nil
}

// openActive opens records.log, replays it, and truncates a torn or
// corrupt tail so the file ends on a clean frame boundary ready for
// appends.
func (l *Log) openActive() error {
	path := filepath.Join(l.cfg.Dir, logName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("recordlog: open log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("recordlog: read log: %w", err)
	}
	valid, torn, damage := l.replay(data)
	if damage != nil {
		if torn {
			l.stats.TruncatedTail++
			l.ctr.truncatedTail.Inc()
		} else {
			l.stats.CorruptFrames++
			l.ctr.corruptFrames.Inc()
		}
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return fmt.Errorf("recordlog: truncate damaged tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("recordlog: sync truncated log: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("recordlog: seek log tail: %w", err)
	}
	l.f = f
	l.size = int64(valid)
	return nil
}

// replay applies the whole, valid frames at the head of data and returns
// the byte length they cover. A non-nil error describes the first damage;
// torn reports that it is a frame running past the end of data (the
// signature of a crash mid-append) rather than a corrupt one.
func (l *Log) replay(data []byte) (valid int, torn bool, err error) {
	for valid < len(data) {
		rest := data[valid:]
		if len(rest) < frameHeader {
			return valid, true, errors.New("torn frame header")
		}
		length := binary.LittleEndian.Uint32(rest[1:5])
		if length > maxFrame {
			// A length this large is a scribbled header, not a frame.
			return valid, false, fmt.Errorf("frame length %d exceeds %d", length, maxFrame)
		}
		end := frameHeader + int(length)
		if end > len(rest) {
			return valid, true, errors.New("torn frame payload")
		}
		payload := rest[frameHeader:end]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[5:9]) {
			return valid, false, errors.New("frame CRC mismatch")
		}
		if err := l.apply(rest[0], payload); err != nil {
			return valid, false, err
		}
		valid += end
	}
	return valid, false, nil
}

// apply replays one CRC-valid frame into the in-memory state.
func (l *Log) apply(kind byte, payload []byte) error {
	switch kind {
	case kindBatch:
		var fr batchFrame
		if err := json.Unmarshal(payload, &fr); err != nil {
			return fmt.Errorf("decode batch frame: %w", err)
		}
		l.seq = max(l.seq, fr.Seq)
		// Filter in place: the decoded slice becomes the batch's one copy.
		fresh := fr.Records[:0]
		for _, r := range fr.Records {
			if _, dup := l.seen[r.ID]; dup {
				continue
			}
			l.seen[r.ID] = struct{}{}
			fresh = append(fresh, r)
		}
		if len(fresh) > 0 {
			l.addBatchLocked(fresh)
		}
		l.totals = fr.Totals
		if l.totals.PostsByForum == nil {
			l.totals.PostsByForum = make(map[corpus.Forum]int)
		}
		if l.totals.ImagesByForum == nil {
			l.totals.ImagesByForum = make(map[corpus.Forum]int)
		}
	case kindInject:
		var fr injectFrame
		if err := json.Unmarshal(payload, &fr); err != nil {
			return fmt.Errorf("decode inject frame: %w", err)
		}
		l.seq = max(l.seq, fr.Seq)
		l.injects = append(l.injects, fr.Spec)
	default:
		return fmt.Errorf("unknown frame kind %d", kind)
	}
	return nil
}

// Append logs one committed round. Records whose ID the log already holds
// are dropped (and counted in recordlog.deduped) — the protection that
// makes a crash between a log append and the round's cursor save safe to
// replay. The returned dataset holds only the fresh records (plus the
// batch's curation bookkeeping) and is what the caller should feed to the
// live projection; it is empty when the whole batch was a replay, in which
// case nothing is written. The log keeps the returned Records slice itself
// as its copy of the batch, so neither the log nor the caller may modify
// it afterwards; a projection that takes it over shares it read-only.
func (l *Log) Append(ds *core.Dataset, at time.Time) (*core.Dataset, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, errors.New("recordlog: log closed")
	}
	fresh := &core.Dataset{
		PostsByForum:  cloneForumMap(ds.PostsByForum),
		ImagesByForum: cloneForumMap(ds.ImagesByForum),
	}
	nfresh := 0
	for i := range ds.Records {
		if _, dup := l.seen[ds.Records[i].ID]; !dup {
			nfresh++
		}
	}
	if nfresh > 0 {
		// Sized exactly: this slice is the record's one long-lived copy.
		fresh.Records = make([]core.Record, 0, nfresh)
	}
	for _, r := range ds.Records {
		if _, dup := l.seen[r.ID]; dup {
			l.stats.Deduped++
			l.ctr.deduped.Inc()
			continue
		}
		fresh.Records = append(fresh.Records, r)
	}
	if len(ds.Records) > 0 && len(fresh.Records) == 0 {
		// Every record was already logged: this is a re-collected round from
		// the crash window (appended, cursors never saved). Its bookkeeping
		// was counted when the records first landed, so drop it whole.
		return &core.Dataset{
			PostsByForum:  make(map[corpus.Forum]int),
			ImagesByForum: make(map[corpus.Forum]int),
		}, nil
	}
	fresh.DecoysRejected = ds.DecoysRejected
	fresh.EmptyDropped = ds.EmptyDropped
	if len(fresh.Records) == 0 && datasetEmpty(fresh) {
		return fresh, nil // nothing worth a frame
	}

	for f, n := range ds.PostsByForum {
		l.totals.PostsByForum[f] += n
	}
	for f, n := range ds.ImagesByForum {
		l.totals.ImagesByForum[f] += n
	}
	l.totals.DecoysRejected += ds.DecoysRejected
	l.totals.EmptyDropped += ds.EmptyDropped

	frame := batchFrame{
		Seq:         l.seq + 1,
		CommittedAt: at,
		Records:     fresh.Records,
		Totals:      l.totals,
	}
	payload, err := json.Marshal(frame)
	if err != nil {
		return nil, fmt.Errorf("recordlog: encode batch: %w", err)
	}
	if err := l.writeFrameLocked(kindBatch, payload); err != nil {
		return nil, err
	}
	l.seq = frame.Seq
	for _, r := range fresh.Records {
		l.seen[r.ID] = struct{}{}
	}
	if len(fresh.Records) > 0 {
		l.addBatchLocked(fresh.Records)
	}
	if l.size >= l.cfg.CompactThreshold {
		if err := l.sealLocked(); err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

// addBatchLocked keeps one batch of committed records.
func (l *Log) addBatchLocked(records []core.Record) {
	l.batches = append(l.batches, records)
	l.nrecords += len(records)
}

// AppendInject journals one injection so a restarted process can replay it
// into its fresh simulation — without it, durable cursors would point past
// posts the rebooted forum servers never heard of.
func (l *Log) AppendInject(spec core.InjectSpec, at time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("recordlog: log closed")
	}
	frame := injectFrame{Seq: l.seq + 1, At: at, Spec: spec}
	payload, err := json.Marshal(frame)
	if err != nil {
		return fmt.Errorf("recordlog: encode inject: %w", err)
	}
	if err := l.writeFrameLocked(kindInject, payload); err != nil {
		return err
	}
	l.seq = frame.Seq
	l.injects = append(l.injects, spec)
	return nil
}

// writeFrameLocked frames, writes, and fsyncs one payload.
func (l *Log) writeFrameLocked(kind byte, payload []byte) error {
	var hdr [frameHeader]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("recordlog: write frame header: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("recordlog: write frame payload: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("recordlog: sync log: %w", err)
	}
	l.size += int64(frameHeader + len(payload))
	l.stats.Appends++
	l.ctr.appends.Inc()
	l.ctr.logBytes.Set(l.size)
	return nil
}

// sealLocked renames records.log, which every append has already
// fsynced, to the next segment name, starts a fresh records.log, and
// fsyncs the directory so both names are durable. It does nothing when
// records.log is empty.
func (l *Log) sealLocked() error {
	if l.size == 0 {
		return nil
	}
	active := filepath.Join(l.cfg.Dir, logName)
	// Segments are numbered 1..n without gaps, so the next is n+1.
	seg := filepath.Join(l.cfg.Dir, segmentName(l.stats.Segments+1))
	if err := os.Rename(active, seg); err != nil {
		return fmt.Errorf("recordlog: seal segment: %w", err)
	}
	f, err := os.OpenFile(active, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		// Put records.log back, so appends keep landing in the file Open
		// replays last.
		return errors.Join(fmt.Errorf("recordlog: start active log: %w", err), os.Rename(seg, active))
	}
	old := l.f
	l.f = f
	l.stats.Segments++
	l.stats.SegmentBytes += l.size
	l.size = 0
	l.stats.Compactions++
	l.ctr.compactions.Inc()
	l.ctr.logBytes.Set(0)
	var errs []error
	if err := old.Close(); err != nil {
		errs = append(errs, fmt.Errorf("recordlog: close sealed segment: %w", err))
	}
	if err := syncDir(l.cfg.Dir); err != nil {
		errs = append(errs, fmt.Errorf("recordlog: sync sealed segment: %w", err))
	}
	return errors.Join(errs...)
}

// Snapshot seals records.log into a segment now, whatever its size; it
// does nothing when records.log is empty.
func (l *Log) Snapshot() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("recordlog: log closed")
	}
	return l.sealLocked()
}

// History returns the durable dataset (replayed + appended this run)
// without copying a record: the curation totals, with Records nil, and
// the committed records, one slice per batch, which the caller shares
// read-only. A restarted daemon seeds its projection from it.
func (l *Log) History() (*core.Dataset, [][]core.Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ds := &core.Dataset{
		PostsByForum:   cloneForumMap(l.totals.PostsByForum),
		ImagesByForum:  cloneForumMap(l.totals.ImagesByForum),
		DecoysRejected: l.totals.DecoysRejected,
		EmptyDropped:   l.totals.EmptyDropped,
	}
	return ds, l.batches[:len(l.batches):len(l.batches)]
}

// Injects returns the journaled injection specs in append order.
func (l *Log) Injects() []core.InjectSpec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]core.InjectSpec, len(l.injects))
	copy(out, l.injects)
	return out
}

// Stats returns the log scoreboard.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Records = l.nrecords
	st.Injects = len(l.injects)
	st.LogBytes = l.size
	return st
}

// Close closes records.log; every append is already durable, so there is
// nothing to write. Idempotent: the first call does the work, every call
// reports its error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.closeErr
	}
	l.closed = true
	if err := l.f.Close(); err != nil {
		l.closeErr = fmt.Errorf("recordlog: close log: %w", err)
	}
	return l.closeErr
}

// datasetEmpty reports whether a dataset carries nothing durable.
func datasetEmpty(ds *core.Dataset) bool {
	if len(ds.Records) > 0 || ds.DecoysRejected != 0 || ds.EmptyDropped != 0 {
		return false
	}
	for _, n := range ds.PostsByForum {
		if n != 0 {
			return false
		}
	}
	for _, n := range ds.ImagesByForum {
		if n != 0 {
			return false
		}
	}
	return true
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	return errors.Join(serr, cerr)
}

// Write renders a Stats snapshot as aligned human-readable text — the
// SectionDurability renderer.
func Write(w io.Writer, st Stats) error {
	if _, err := fmt.Fprintf(w, "recordlog\n  records=%d injects=%d log=%dB segments=%d (%dB)\n",
		st.Records, st.Injects, st.LogBytes, st.Segments, st.SegmentBytes); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  appends=%d replayed=%d deduped=%d compactions=%d\n",
		st.Appends, st.Replayed, st.Deduped, st.Compactions); err != nil {
		return err
	}
	if st.TruncatedTail > 0 || st.CorruptFrames > 0 {
		if _, err := fmt.Fprintf(w, "  damage: truncated_tail=%d corrupt_frames=%d\n",
			st.TruncatedTail, st.CorruptFrames); err != nil {
			return err
		}
	}
	return nil
}
