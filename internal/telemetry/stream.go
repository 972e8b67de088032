package telemetry

import (
	"bufio"
	"encoding/binary"
	"io"
	"math/bits"
	"sync"
	"time"

	"chainmon/internal/spsc"
)

// On-disk event-log format (see docs/telemetry.md):
//
//	[8]byte magic "CHMTRC01"
//	records: u32 payload length (little endian), u8 record type, payload
//
// Record types:
//
//	0x01 track def: u16 track id, name bytes
//	0x02 label def: u16 label id, name bytes
//	0x03 event:     u16 track, i64 ts, u64 act, i64 arg, u32 flow,
//	                u16 label, u8 kind, u8 status  (34 bytes)
//	0x04 meta:      "key=value" bytes
//	0x05 scope def: u8 scope id, name bytes
//
// Definitions always precede the first event that references them, so the
// log is readable as a forward-only stream.
const streamMagic = "CHMTRC01"

const (
	recTrackDef byte = 0x01
	recLabelDef byte = 0x02
	recEvent    byte = 0x03
	recMeta     byte = 0x04
	recScopeDef byte = 0x05
)

const eventPayloadLen = 34

// StreamOptions configures a StreamWriter.
type StreamOptions struct {
	// RingCap is the per-track staging-ring capacity of a wall-clock
	// writer, rounded up to a power of two (default 8192). When a ring is
	// full the newest event is dropped from the stream (never from the
	// in-memory flight recorder) and counted.
	RingCap int
	// FlushEvery is a wall-clock writer's drain/flush period (default
	// 100ms).
	FlushEvery time.Duration
	// Metrics, when non-nil, receives the writer's drop/flush/volume
	// counters (chainmon_stream_*).
	Metrics *Registry
	// RotateBytes, when > 0 and the writer owns its files (NewStreamFile),
	// rotates to a fresh gzip-compressed segment — path.0.gz, path.1.gz, … —
	// whenever the current segment's uncompressed encoded size crosses the
	// threshold. Every segment is independently readable: it restates the
	// magic, the timebase meta record and all track/label/scope definitions
	// seen so far, so a reader can start at any segment. Ignored by
	// NewStreamWriter (the caller owns the io.Writer there).
	RotateBytes int64
}

// defRecord is one retained definition record (track/label/scope), replayed
// at the start of every rotated segment so each segment is self-describing.
type defRecord struct {
	typ     byte
	payload []byte
}

// StreamWriter tees flight-recorder appends to an append-only binary event
// log, so multi-hour wall-clock runs keep bounded memory: the in-memory
// rings stay the fixed-size newest-window view while the log retains
// everything (minus explicitly counted drops). Attach with
// Recorder.SetStream before creating tracks; read back with ReadLog.
type StreamWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	err     error
	closed  bool
	scratch [eventPayloadLen + 5]byte

	background bool
	ringCap    int
	flushEvery time.Duration
	tracks     []*Track // background drain order = creation order
	stop       chan struct{}
	done       chan struct{}

	// observer sees every event record exactly as it reaches the log, in
	// log order (direct mode: append order; background mode: drain order).
	// It runs under sw.mu, so it must never call back into the Recorder or
	// append to a track. An offline replay of the written log through the
	// same observer sees an identical event sequence — that is the contract
	// the blame engine's online/offline byte-identity rests on.
	observer func(track uint16, ev Event)

	events uint64 // guarded by mu
	bytes  uint64

	eventsC  *Counter
	bytesC   *Counter
	flushesC *Counter
	reg      *Registry

	// File-owning rotation state (NewStreamFile; nil/zero otherwise).
	timebase    string
	out         *segmentedFile
	rotateBytes int64
	segBytes    uint64 // uncompressed bytes in the current segment
	rotating    bool   // guards against re-entrant rotation while replaying defs
	defs        []defRecord
	rotations   uint64
	rotationsC  *Counter
}

// NewStreamWriter creates a writer on w and writes the log header. timebase
// names the timestamp domain of the events ("sim" or "wall") and is recorded
// as log metadata. It also picks the writer: on "wall", where tracks are
// appended from more than one goroutine, producers push events into
// per-track wait-free staging rings and a background drainer encodes and
// flushes them; on any other timebase Append encodes inline, which is
// deterministic and byte-identical across same-seed runs of the
// single-goroutine simulation.
func NewStreamWriter(w io.Writer, timebase string, opts StreamOptions) (*StreamWriter, error) {
	sw := newStreamWriterCore(w, timebase, opts)
	sw.writeHeaderLocked()
	if sw.err != nil {
		return nil, sw.err
	}
	sw.start()
	return sw, nil
}

// newStreamWriterCore builds a writer on w without writing the header or
// starting the background drainer, so NewStreamWriter and NewStreamFile
// share construction.
func newStreamWriterCore(w io.Writer, timebase string, opts StreamOptions) *StreamWriter {
	sw := &StreamWriter{
		bw:         bufio.NewWriterSize(w, 1<<16),
		background: timebase == "wall",
		ringCap:    opts.RingCap,
		flushEvery: opts.FlushEvery,
		reg:        opts.Metrics,
		timebase:   timebase,
	}
	if sw.ringCap <= 0 {
		sw.ringCap = 8192
	}
	sw.ringCap = 1 << bits.Len(uint(sw.ringCap-1)) // staging rings need a power of two
	if sw.flushEvery <= 0 {
		sw.flushEvery = 100 * time.Millisecond
	}
	if sw.reg != nil {
		sw.eventsC = sw.reg.Counter("chainmon_stream_events_total",
			"Events written to the streaming trace sink.")
		sw.bytesC = sw.reg.Counter("chainmon_stream_bytes_total",
			"Bytes written to the streaming trace sink.")
		sw.flushesC = sw.reg.Counter("chainmon_stream_flushes_total",
			"Buffered-writer flushes of the streaming trace sink.")
	}
	return sw
}

// writeHeaderLocked writes the magic and the timebase meta record; at
// construction no lock is needed, after a rotation the caller holds sw.mu.
func (sw *StreamWriter) writeHeaderLocked() {
	if _, err := sw.bw.WriteString(streamMagic); err != nil {
		sw.err = err
		return
	}
	sw.bytes += uint64(len(streamMagic))
	sw.segBytes += uint64(len(streamMagic))
	sw.writeRecordLocked(recMeta, []byte("timebase="+sw.timebase))
}

// start launches the background drainer of a wall-clock writer.
func (sw *StreamWriter) start() {
	if sw.background {
		sw.stop = make(chan struct{})
		sw.done = make(chan struct{})
		go sw.drainLoop()
	}
}

// register is called by Recorder.Track at track creation (the caller holds
// the recorder mutex; lock order is always recorder → stream).
func (sw *StreamWriter) register(t *Track) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	payload := make([]byte, 2+len(t.name))
	binary.LittleEndian.PutUint16(payload, t.id)
	copy(payload[2:], t.name)
	sw.retainDefLocked(recTrackDef, payload)
	sw.writeRecordLocked(recTrackDef, payload)
	if sw.background {
		t.ring = spsc.New[Event](sw.ringCap)
		if sw.reg != nil {
			t.streamDropC = sw.reg.Counter("chainmon_stream_dropped_total",
				"Events dropped from the streaming trace sink because a staging ring was full.",
				Label{Name: "track", Value: t.name})
		}
		sw.tracks = append(sw.tracks, t)
	}
}

// defineLabel is called by Recorder.Intern under the recorder mutex.
func (sw *StreamWriter) defineLabel(id uint16, name string) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	payload := make([]byte, 2+len(name))
	binary.LittleEndian.PutUint16(payload, id)
	copy(payload[2:], name)
	sw.retainDefLocked(recLabelDef, payload)
	sw.writeRecordLocked(recLabelDef, payload)
}

// defineScope is called by the recorder's flow-scope intern under the
// recorder mutex.
func (sw *StreamWriter) defineScope(id uint8, name string) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	payload := make([]byte, 1+len(name))
	payload[0] = id
	copy(payload[1:], name)
	sw.retainDefLocked(recScopeDef, payload)
	sw.writeRecordLocked(recScopeDef, payload)
}

// tee is the Append hook: inline encode in direct mode, staging-ring push
// in background mode (wait-free; a full ring drops the event and counts it).
func (sw *StreamWriter) tee(t *Track, ev Event) {
	if t.ring != nil {
		if !t.ring.Post(ev) {
			t.streamDrops.Add(1)
			if t.streamDropC != nil {
				t.streamDropC.Inc()
			}
		}
		return
	}
	sw.mu.Lock()
	sw.writeEventLocked(t.id, ev)
	sw.mu.Unlock()
}

// writeEventLocked encodes one event record; callers hold sw.mu.
func (sw *StreamWriter) writeEventLocked(track uint16, ev Event) {
	if sw.err != nil || sw.closed {
		return
	}
	b := sw.scratch[:]
	binary.LittleEndian.PutUint32(b[0:4], eventPayloadLen)
	b[4] = recEvent
	binary.LittleEndian.PutUint16(b[5:7], track)
	binary.LittleEndian.PutUint64(b[7:15], uint64(ev.TS))
	binary.LittleEndian.PutUint64(b[15:23], ev.Act)
	binary.LittleEndian.PutUint64(b[23:31], uint64(ev.Arg))
	binary.LittleEndian.PutUint32(b[31:35], ev.Flow)
	binary.LittleEndian.PutUint16(b[35:37], ev.Label)
	b[37] = byte(ev.Kind)
	b[38] = ev.Status
	if _, err := sw.bw.Write(b); err != nil {
		sw.err = err
		return
	}
	sw.events++
	sw.bytes += uint64(len(b))
	sw.segBytes += uint64(len(b))
	if sw.eventsC != nil {
		sw.eventsC.Inc()
		sw.bytesC.Add(uint64(len(b)))
	}
	if sw.observer != nil {
		sw.observer(track, ev)
	}
	sw.maybeRotateLocked()
}

// SetObserver installs a callback invoked for every event record written to
// the log, with exactly the records and ordering the log gets (events dropped
// from a full staging ring are invisible to both). Install before the run
// starts. The callback runs under the writer lock: it must be fast and must
// not call back into the Recorder or the writer.
func (sw *StreamWriter) SetObserver(fn func(track uint16, ev Event)) {
	sw.mu.Lock()
	sw.observer = fn
	sw.mu.Unlock()
}

// writeRecordLocked encodes one non-event record; callers hold sw.mu.
func (sw *StreamWriter) writeRecordLocked(typ byte, payload []byte) {
	if sw.err != nil || sw.closed {
		return
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := sw.bw.Write(hdr[:]); err != nil {
		sw.err = err
		return
	}
	if _, err := sw.bw.Write(payload); err != nil {
		sw.err = err
		return
	}
	sw.bytes += uint64(len(hdr) + len(payload))
	sw.segBytes += uint64(len(hdr) + len(payload))
	if sw.bytesC != nil {
		sw.bytesC.Add(uint64(len(hdr) + len(payload)))
	}
	sw.maybeRotateLocked()
}

// retainDefLocked remembers a definition record for replay at segment
// starts; a no-op unless the writer rotates.
func (sw *StreamWriter) retainDefLocked(typ byte, payload []byte) {
	if sw.rotateBytes > 0 {
		sw.defs = append(sw.defs, defRecord{typ: typ, payload: payload})
	}
}

// drainLoop is the background drainer: every FlushEvery it empties all
// staging rings in track-creation order and flushes the buffered writer.
func (sw *StreamWriter) drainLoop() {
	tick := time.NewTicker(sw.flushEvery)
	defer tick.Stop()
	for {
		select {
		case <-sw.stop:
			sw.drainOnce()
			sw.flushOnce()
			close(sw.done)
			return
		case <-tick.C:
			sw.drainOnce()
			sw.flushOnce()
		}
	}
}

// Drain writes every staged event to the log now, in the drainer's order
// and through the observer, so the observer has seen all that producers
// appended before the call (a no-op in direct mode, which stages nothing).
// Producers must have quiesced; the writer stays open.
func (sw *StreamWriter) Drain() { sw.drainOnce() }

func (sw *StreamWriter) drainOnce() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for _, t := range sw.tracks {
		for {
			ev, ok := t.ring.Pop()
			if !ok {
				break
			}
			sw.writeEventLocked(t.id, ev)
		}
	}
}

func (sw *StreamWriter) flushOnce() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed {
		return
	}
	if err := sw.bw.Flush(); err != nil && sw.err == nil {
		sw.err = err
	}
	if sw.out != nil {
		if err := sw.out.flush(); err != nil && sw.err == nil {
			sw.err = err
		}
	}
	if sw.flushesC != nil {
		sw.flushesC.Inc()
	}
}

// Close drains any staged events (background mode), flushes the buffered
// writer, closes any owned files (NewStreamFile) and returns the first write
// error. Producers must have quiesced: events appended concurrently with
// Close may miss the final drain.
func (sw *StreamWriter) Close() error {
	if sw.background {
		close(sw.stop)
		<-sw.done
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.closed {
		if err := sw.bw.Flush(); err != nil && sw.err == nil {
			sw.err = err
		}
		if sw.out != nil {
			if err := sw.out.closeSegment(); err != nil && sw.err == nil {
				sw.err = err
			}
		}
		if sw.flushesC != nil {
			sw.flushesC.Inc()
		}
		sw.closed = true
	}
	return sw.err
}

// EventsWritten returns how many event records reached the log.
func (sw *StreamWriter) EventsWritten() uint64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.events
}

// BytesWritten returns the encoded log size so far (excluding data still in
// the bufio buffer only in the sense of flushing; counting is at encode
// time).
func (sw *StreamWriter) BytesWritten() uint64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.bytes
}

// Rotations returns how many times the writer rotated to a new segment
// (always 0 without NewStreamFile + RotateBytes).
func (sw *StreamWriter) Rotations() uint64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.rotations
}

// Dropped returns how many events were dropped because a staging ring was
// full (always 0 in direct mode).
func (sw *StreamWriter) Dropped() uint64 {
	sw.mu.Lock()
	tracks := sw.tracks
	sw.mu.Unlock()
	var total uint64
	for _, t := range tracks {
		total += t.streamDrops.Load()
	}
	return total
}
