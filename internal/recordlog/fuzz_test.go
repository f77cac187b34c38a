package recordlog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// validPrefix is the reference frame walker FuzzOpen checks Open against:
// the byte length of the longest run of whole frames at the head of data
// whose CRC matches, whose kind is known and whose payload decodes.
func validPrefix(data []byte) int {
	valid := 0
	for {
		rest := data[valid:]
		if len(rest) < frameHeader {
			return valid
		}
		n := binary.LittleEndian.Uint32(rest[1:5])
		if n > maxFrame || uint64(frameHeader)+uint64(n) > uint64(len(rest)) {
			return valid
		}
		payload := rest[frameHeader : frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[5:9]) {
			return valid
		}
		var err error
		switch rest[0] {
		case kindBatch:
			err = json.Unmarshal(payload, new(batchFrame))
		case kindInject:
			err = json.Unmarshal(payload, new(injectFrame))
		default:
			return valid
		}
		if err != nil {
			return valid
		}
		valid += frameHeader + int(n)
	}
}

// FuzzOpen feeds arbitrary bytes to Open, once as the active records.log
// and once as a sealed segment. Open must never panic; on records.log it
// keeps exactly the longest valid prefix of frames and truncates the file
// there; on a sealed segment any damage is an error, and a whole segment
// replays to the same state as the same bytes in records.log.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want := validPrefix(data)

		active := t.TempDir()
		if err := os.WriteFile(filepath.Join(active, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Config{Dir: active}, nil)
		if err != nil {
			t.Fatalf("Open of a damaged records.log must truncate, not fail: %v", err)
		}
		st := l.Stats()
		if st.LogBytes != int64(want) {
			t.Fatalf("kept %d bytes of records.log, the valid prefix is %d of %d", st.LogBytes, want, len(data))
		}
		if damage := st.TruncatedTail + st.CorruptFrames; (damage == 1) != (want < len(data)) || damage > 1 {
			t.Fatalf("damage counters torn=%d corrupt=%d for a %d-byte valid prefix of %d bytes",
				st.TruncatedTail, st.CorruptFrames, want, len(data))
		}
		wantDS, wantInjects := dataset(l), l.Injects()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.ReadFile(filepath.Join(active, logName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, data[:want]) {
			t.Fatalf("records.log on disk is %d bytes, want the %d-byte valid prefix", len(onDisk), want)
		}

		sealed := t.TempDir()
		if err := os.WriteFile(filepath.Join(sealed, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ls, err := Open(Config{Dir: sealed}, nil)
		if want < len(data) {
			if err == nil {
				ls.Close()
				t.Fatalf("Open accepted a sealed segment damaged at byte %d of %d", want, len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("Open rejected a whole sealed segment: %v", err)
		}
		defer ls.Close()
		if got := dataset(ls); !reflect.DeepEqual(got, wantDS) {
			t.Fatalf("segment replay differs from records.log replay:\n got %+v\nwant %+v", got, wantDS)
		}
		if got := ls.Injects(); !reflect.DeepEqual(got, wantInjects) {
			t.Fatalf("segment injects = %+v, want %+v", got, wantInjects)
		}
	})
}
