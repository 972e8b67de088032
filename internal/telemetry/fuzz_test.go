package telemetry_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"chainmon/internal/perception"
	"chainmon/internal/telemetry"
)

// simLog streams a short full-chain perception run and returns the log.
func simLog(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sw, err := telemetry.NewStreamWriter(&buf, "sim", telemetry.StreamOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	streamRun(tb, sw)
	return buf.Bytes()
}

// rotatedLog streams simLog's run into a set of gzip segments and returns
// each segment's bytes.
func rotatedLog(tb testing.TB) [][]byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "run.chmtrc")
	sw, err := telemetry.NewStreamFile(path, "sim", telemetry.StreamOptions{RotateBytes: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	streamRun(tb, sw)
	var segs [][]byte
	for i := 0; ; i++ {
		b, err := os.ReadFile(fmt.Sprintf("%s.%d.gz", path, i))
		if err != nil {
			break
		}
		segs = append(segs, b)
	}
	if len(segs) < 3 {
		tb.Fatalf("%d segments, want at least 3", len(segs))
	}
	return segs
}

// streamRun runs two frames of the full chain into sw and closes it.
func streamRun(tb testing.TB, sw *telemetry.StreamWriter) {
	tb.Helper()
	sink := telemetry.NewSink(telemetry.DefaultTrackCap)
	sink.Rec.SetStream(sw)
	cfg := perception.DefaultConfig()
	cfg.Frames = 2
	cfg.FullChain = true
	s := perception.Build(cfg)
	perception.AttachTelemetry(s, sink)
	s.Run()
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
}

type logEvent struct {
	track string
	ev    telemetry.Event
}

func replay(l *telemetry.Log) []logEvent {
	var out []logEvent
	l.Replay(func(track uint16, ev telemetry.Event) {
		out = append(out, logEvent{l.TrackName(track), ev})
	})
	return out
}

// magicLen is the length of the CHMTRC01 file magic.
const magicLen = len("CHMTRC01")

// recordEnds returns the offsets at which data could be cut without
// splitting a record: after the magic and after every complete record,
// each framed by a 4-byte little-endian length and a type byte.
func recordEnds(data []byte) map[int]bool {
	ends := map[int]bool{magicLen: true}
	for pos := magicLen; pos+5 <= len(data); {
		next := pos + 5 + int(binary.LittleEndian.Uint32(data[pos:]))
		if next > len(data) {
			break
		}
		pos = next
		ends[pos] = true
	}
	return ends
}

// FuzzReadLog feeds the stream-log reader arbitrary bytes and cuts them at
// an arbitrary offset. The reader must never panic; when the uncut log
// parses, the cut one parses to a prefix of its events (or fails only for a
// cut inside the magic), and it is flagged Truncated exactly when the cut
// splits a record.
func FuzzReadLog(f *testing.F) {
	raw := simLog(f)
	f.Add(raw, uint(len(raw)))
	f.Add(raw, uint(len(raw)-3))
	f.Add(raw, uint(len(raw)/2))
	f.Add(raw[:64], uint(magicLen+2))
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		n := int(cut % uint(len(data)+1))
		full, err := telemetry.ReadLog(bytes.NewReader(data))
		part, perr := telemetry.ReadLog(bytes.NewReader(data[:n]))
		if err != nil {
			return
		}
		if perr != nil {
			if n >= magicLen {
				t.Fatalf("cut at %d of %d bytes: %v (the uncut log parses)", n, len(data), perr)
			}
			return
		}
		want, got := replay(full), replay(part)
		if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
			t.Fatalf("cut at %d of %d bytes: %d events are not a prefix of the uncut log's %d",
				n, len(data), len(got), len(want))
		}
		if split := !recordEnds(data)[n]; part.Truncated != split {
			t.Fatalf("cut at %d of %d bytes: Truncated = %v, want %v", n, len(data), part.Truncated, split)
		}
	})
}

// FuzzOpenLogSet feeds OpenLogSet arbitrary bytes as a plain file, as a
// gzip file, and as the middle and the final segment of a rotated set
// whose other segments come from a real run. It must never panic. A broken
// middle segment — one that fails, or reads as cut, when it ends the set —
// is an error. A final segment cut from a clean one, plain or compressed,
// is accepted and flagged Truncated exactly when the cut splits a record or
// the gzip stream. Every accepted log's Events() counts exactly the events
// Replay yields.
func FuzzOpenLogSet(f *testing.F) {
	segs := rotatedLog(f)
	first, mid, last := segs[0], segs[1], segs[len(segs)-1]
	zr, err := gzip.NewReader(bytes.NewReader(mid))
	if err != nil {
		f.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain, uint(len(plain)/2))
	f.Add(plain[:len(plain)-3], uint(0))
	f.Add(mid, uint(len(mid)/2))
	f.Add(mid[:len(mid)/2], uint(0))
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf) // reused: a compressor's state is large
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		zbuf.Reset()
		zw.Reset(&zbuf)
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		gz := zbuf.Bytes()
		dir := t.TempDir()
		open := func(name string, rotated bool, files ...[]byte) (*telemetry.Log, error) {
			path := filepath.Join(dir, name)
			for i, b := range files {
				file := path
				if rotated {
					file = fmt.Sprintf("%s.%d.gz", path, i)
				}
				if err := os.WriteFile(file, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, err := telemetry.OpenLogSet(path)
			if err == nil {
				if n := len(replay(l)); l.Events() != n {
					t.Fatalf("%s: Events() = %d, Replay yields %d", name, l.Events(), n)
				}
			}
			return l, err
		}
		open("plain", false, data)
		open("gzip", false, gz)
		fin, ferr := open("final", true, first, data)
		if _, err := open("middle", true, first, data, last); err == nil && (ferr != nil || fin.Truncated) {
			t.Fatalf("a middle segment that fails or is cut at the end of a set was accepted (%v)", ferr)
		}
		if ferr != nil || fin.Truncated || bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			return
		}
		n := int(cut % uint(len(data)+1))
		part, err := open("cut", true, first, data[:n])
		if err != nil {
			t.Fatalf("final segment cut at %d of %d bytes: %v", n, len(data), err)
		}
		if split := !recordEnds(data)[n]; part.Truncated != split {
			t.Fatalf("final segment cut at %d of %d bytes: Truncated = %v, want %v", n, len(data), part.Truncated, split)
		}
		n = int(cut % uint(len(gz)+1))
		part, err = open("cutgz", true, first, gz[:n])
		if err != nil {
			t.Fatalf("gzip final segment cut at %d of %d bytes: %v", n, len(gz), err)
		}
		if split := n < len(gz); part.Truncated != split {
			t.Fatalf("gzip final segment cut at %d of %d bytes: Truncated = %v, want %v", n, len(gz), part.Truncated, split)
		}
	})
}
