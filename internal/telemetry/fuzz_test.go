package telemetry_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"chainmon/internal/perception"
	"chainmon/internal/telemetry"
)

// simLog streams a short full-chain perception run and returns the log.
func simLog(tb testing.TB) []byte {
	tb.Helper()
	sink := telemetry.NewSink(telemetry.DefaultTrackCap)
	var buf bytes.Buffer
	sw, err := telemetry.NewStreamWriter(&buf, "sim", telemetry.StreamOptions{})
	if err != nil {
		tb.Fatal(err)
	}
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
	return buf.Bytes()
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
