package telemetry

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// Log is a fully parsed on-disk event log — the offline twin of a Recorder:
// the same tracks, label table and flow scopes, reconstructed from the
// stream a StreamWriter produced. Unlike the in-memory rings it holds every
// streamed event, not just the newest window.
type Log struct {
	// Timebase is the timestamp domain recorded in the log metadata
	// ("sim" or "wall"; empty in logs without the meta record).
	Timebase string
	// Truncated reports that the log ends inside a record (a run killed
	// mid-flush): the events before the cut parsed, the partial record did
	// not.
	Truncated bool

	labels []string
	scopes []string
	tracks []*LogTrack
	byID   map[uint16]*LogTrack
	// order records the global file order of events across tracks — each
	// entry points at one event of one track — so Replay can re-feed a
	// consumer with exactly the sequence the online stream observer saw.
	order []logEvRef
}

// logEvRef locates one event in its track's Events slice.
type logEvRef struct {
	track uint16
	idx   uint32
}

// LogTrack is one track of a parsed log.
type LogTrack struct {
	ID     uint16
	Name   string
	Events []Event
}

// maxStreamRecordLen bounds a single record so a corrupt length prefix
// cannot ask for gigabytes.
const maxStreamRecordLen = 1 << 20

// newLog allocates an empty Log ready to absorb one or more streams.
func newLog() *Log {
	return &Log{
		labels: []string{""},
		scopes: []string{""},
		byID:   map[uint16]*LogTrack{},
	}
}

// ReadLog parses an event log written by a StreamWriter. It tolerates a
// truncated final record (a run killed mid-flush), flagging it in
// Log.Truncated, but rejects structural corruption. For on-disk logs that
// may be gzip-compressed or rotated into segments, use OpenLogSet instead.
func ReadLog(r io.Reader) (*Log, error) {
	l := newLog()
	if err := l.readFrom(r); err != nil {
		return nil, err
	}
	return l, nil
}

// readFrom absorbs one CHMTRC01 stream into the log. Re-definitions with
// identical content — the per-segment def replay of a rotated log — merge
// silently; a track id re-defined under a different name is corruption.
func (l *Log) readFrom(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(streamMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("telemetry: reading log magic: %w", err)
	}
	if string(magic) != streamMagic {
		return fmt.Errorf("telemetry: not a chainmon event log (magic %q)", magic)
	}
	var hdr [5]byte
	payload := make([]byte, 0, 256)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return l.truncated(err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		typ := hdr[4]
		if n > maxStreamRecordLen {
			return fmt.Errorf("telemetry: corrupt log: record length %d", n)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return l.truncated(err)
		}
		switch typ {
		case recTrackDef:
			if len(payload) < 2 {
				return fmt.Errorf("telemetry: corrupt track def")
			}
			id := binary.LittleEndian.Uint16(payload)
			name := string(payload[2:])
			if existing, ok := l.byID[id]; ok {
				if existing.Name != name {
					return fmt.Errorf("telemetry: track %d redefined as %q (was %q)", id, name, existing.Name)
				}
				break // def replay of a rotated segment
			}
			t := &LogTrack{ID: id, Name: name}
			l.tracks = append(l.tracks, t)
			l.byID[id] = t
		case recLabelDef:
			if len(payload) < 2 {
				return fmt.Errorf("telemetry: corrupt label def")
			}
			id := binary.LittleEndian.Uint16(payload)
			for len(l.labels) <= int(id) {
				l.labels = append(l.labels, "")
			}
			l.labels[id] = string(payload[2:])
		case recScopeDef:
			if len(payload) < 1 {
				return fmt.Errorf("telemetry: corrupt scope def")
			}
			id := payload[0]
			for len(l.scopes) <= int(id) {
				l.scopes = append(l.scopes, "")
			}
			l.scopes[id] = string(payload[1:])
		case recEvent:
			if len(payload) != eventPayloadLen {
				return fmt.Errorf("telemetry: corrupt event record (%d bytes)", len(payload))
			}
			trackID := binary.LittleEndian.Uint16(payload[0:2])
			t, ok := l.byID[trackID]
			if !ok {
				return fmt.Errorf("telemetry: event references undefined track %d", trackID)
			}
			l.order = append(l.order, logEvRef{track: trackID, idx: uint32(len(t.Events))})
			t.Events = append(t.Events, Event{
				TS:     int64(binary.LittleEndian.Uint64(payload[2:10])),
				Act:    binary.LittleEndian.Uint64(payload[10:18]),
				Arg:    int64(binary.LittleEndian.Uint64(payload[18:26])),
				Flow:   binary.LittleEndian.Uint32(payload[26:30]),
				Label:  binary.LittleEndian.Uint16(payload[30:32]),
				Kind:   Kind(payload[32]),
				Status: payload[33],
			})
		case recMeta:
			if kv := string(payload); strings.HasPrefix(kv, "timebase=") {
				l.Timebase = strings.TrimPrefix(kv, "timebase=")
			}
		default:
			return fmt.Errorf("telemetry: unknown record type 0x%02x", typ)
		}
	}
}

// truncated absorbs an end of input inside a record by flagging the log;
// any other read error is returned.
func (l *Log) truncated(err error) error {
	if !isTruncation(err) {
		return err
	}
	l.Truncated = true
	return nil
}

// Tracks returns the log's tracks in definition (creation) order.
func (l *Log) Tracks() []*LogTrack { return l.tracks }

// Replay invokes fn for every event in global file order — the exact order
// the StreamWriter encoded them, which is the order its online observer saw.
// Rotated log sets concatenate segments in rotation order, so the property
// holds across rotation too.
func (l *Log) Replay(fn func(track uint16, ev Event)) {
	for _, ref := range l.order {
		fn(ref.track, l.byID[ref.track].Events[ref.idx])
	}
}

// TrackName resolves a track id to its name ("" when undefined).
func (l *Log) TrackName(id uint16) string {
	if t, ok := l.byID[id]; ok {
		return t.Name
	}
	return ""
}

// LabelName resolves an interned label id of the log.
func (l *Log) LabelName(id uint16) string {
	if int(id) < len(l.labels) {
		return l.labels[id]
	}
	return ""
}

// ScopeName resolves a flow-scope id of the log.
func (l *Log) ScopeName(id uint8) string {
	if int(id) < len(l.scopes) {
		return l.scopes[id]
	}
	return ""
}

// Events returns the total number of events across all tracks.
func (l *Log) Events() int {
	n := 0
	for _, t := range l.tracks {
		n += len(t.Events)
	}
	return n
}

// WritePerfetto converts the log to Chrome trace-event JSON with flow
// events, exactly like Sink.WritePerfetto does for the in-memory recorder.
func (l *Log) WritePerfetto(w io.Writer) error {
	tracks := make([]exportTrack, len(l.tracks))
	for i, t := range l.tracks {
		tracks[i] = exportTrack{name: t.Name, events: t.Events}
	}
	return writePerfetto(w, tracks, l.LabelName, l.ScopeName)
}
