package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"

	"chainmon/internal/spsc"
)

// DefaultTrackCap is the per-track event capacity used when NewRecorder is
// given a non-positive capacity: 64Ki events, at most 2 MiB per track. A
// track holds only the chunks it has written into, so the capacity bounds
// its memory rather than sizing it up front.
const DefaultTrackCap = 1 << 16

// chunkShift sizes a track's storage chunk: 1Ki events, 32 KiB. A chunk is
// allocated by the first Append that writes into it.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
)

// Recorder owns the flight-recorder tracks, the label intern table and the
// flow-scope table. Track creation, interning and scope binding take a mutex
// (they happen at attach time); appending to a track is wait-free and
// lock-free.
type Recorder struct {
	trackCap int

	mu       sync.Mutex
	tracks   []*Track
	byName   map[string]*Track
	labels   []string
	ids      map[string]uint16
	scopes   []string         // flow-scope names; id 0 is unused ("no flow")
	scopeIDs map[string]uint8 // scope name → id
	streams  map[string]uint8 // event-stream name (topic, segment) → scope id
	stream   *StreamWriter    // nil when events are not teed to disk
	observer func(track uint16, ev Event)
}

// NewRecorder creates a recorder whose tracks hold trackCap events each,
// rounded up to a power of two.
func NewRecorder(trackCap int) *Recorder {
	if trackCap <= 0 {
		trackCap = DefaultTrackCap
	}
	cap := 1
	for cap < trackCap {
		cap <<= 1
	}
	return &Recorder{
		trackCap: cap,
		byName:   map[string]*Track{},
		labels:   []string{""}, // id 0 is the empty label
		ids:      map[string]uint16{"": 0},
		scopes:   []string{""}, // id 0 means "no flow"
		scopeIDs: map[string]uint8{},
		streams:  map[string]uint8{},
	}
}

// SetStream tees every future Append to the writer, in addition to the
// in-memory ring. It must be called before any track is created: the stream
// registers tracks (and, in background mode, their staging rings) at track
// creation time, so a late attachment would silently miss tracks.
func (r *Recorder) SetStream(sw *StreamWriter) {
	if r == nil || sw == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.tracks) > 0 {
		panic("telemetry: SetStream must be called before any track is created")
	}
	r.stream = sw
	// Replay definitions interned before the stream was attached so event
	// records never reference an undefined id.
	for id := 1; id < len(r.labels); id++ {
		sw.defineLabel(uint16(id), r.labels[id])
	}
	for id := 1; id < len(r.scopes); id++ {
		sw.defineScope(uint8(id), r.scopes[id])
	}
}

// SetObserver tees every future Append to fn, in append order. Like
// SetStream it must be called before any track is created (tracks capture
// the observer at creation). The callback runs on the appending goroutine;
// with multiple appending goroutines it must be internally synchronized.
// When a stream writer is also attached, prefer StreamWriter.SetObserver —
// it sees the log's drain order, which is what offline replay reproduces.
func (r *Recorder) SetObserver(fn func(track uint16, ev Event)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.tracks) > 0 {
		panic("telemetry: SetObserver must be called before any track is created")
	}
	r.observer = fn
}

// Track returns the named track, creating it on first use. Tracks are
// single-writer: exactly one goroutine may Append to a given track. A nil
// recorder returns a nil track, whose Append is a no-op.
func (r *Recorder) Track(name string) *Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.byName[name]; ok {
		return t
	}
	t := &Track{
		name:   name,
		id:     uint16(len(r.tracks)),
		chunks: make([][]Event, (r.trackCap+chunkLen-1)/chunkLen),
		cap:    uint64(r.trackCap),
		obs:    r.observer,
	}
	if r.stream != nil {
		t.sw = r.stream
		r.stream.register(t)
	}
	r.tracks = append(r.tracks, t)
	r.byName[name] = t
	return t
}

// Intern returns a stable id for the string, for use as Event.Label.
// A nil recorder returns 0 (the empty label).
func (r *Recorder) Intern(s string) uint16 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[s]; ok {
		return id
	}
	id := uint16(len(r.labels))
	r.labels = append(r.labels, s)
	r.ids[s] = id
	if r.stream != nil {
		r.stream.defineLabel(id, s)
	}
	return id
}

// LabelName resolves an interned label id.
func (r *Recorder) LabelName(id uint16) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) < len(r.labels) {
		return r.labels[id]
	}
	return ""
}

// BindFlow assigns an event stream (a topic or segment name) to a named flow
// scope, so events of different streams that belong to the same causal chain
// share flow identities. Streams that are never bound fall into a scope of
// their own name on first use (see FlowScope). Bindings must be installed
// before the instrumented run starts.
func (r *Recorder) BindFlow(stream, scope string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.streams[stream] = r.internScope(scope)
}

// FlowScope resolves the flow-scope id of an event stream, auto-binding
// unbound streams to a scope of their own name. A nil recorder returns 0
// (no flow).
func (r *Recorder) FlowScope(stream string) uint8 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.streams[stream]; ok {
		return id
	}
	id := r.internScope(stream)
	r.streams[stream] = id
	return id
}

// internScope creates or returns a scope id; callers hold r.mu.
func (r *Recorder) internScope(scope string) uint8 {
	if id, ok := r.scopeIDs[scope]; ok {
		return id
	}
	if len(r.scopes) > 255 {
		panic(fmt.Sprintf("telemetry: too many flow scopes (255 max), binding %q", scope))
	}
	id := uint8(len(r.scopes))
	r.scopes = append(r.scopes, scope)
	r.scopeIDs[scope] = id
	if r.stream != nil {
		r.stream.defineScope(id, scope)
	}
	return id
}

// ScopeName resolves a flow-scope id.
func (r *Recorder) ScopeName(id uint8) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) < len(r.scopes) {
		return r.scopes[id]
	}
	return ""
}

// Tracks returns the tracks in creation order.
func (r *Recorder) Tracks() []*Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Track(nil), r.tracks...)
}

// trackList returns the tracks in id order without copying them: the list
// is append-only, so the returned prefix never changes.
func (r *Recorder) trackList() []*Track {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracks
}

// TrackName resolves a track id to its name ("" when undefined), without
// copying the track list.
func (r *Recorder) TrackName(id uint16) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) < len(r.tracks) {
		return r.tracks[id].name
	}
	return ""
}

// Dropped returns the total number of overwritten (dropped-oldest) events
// across all tracks. It is safe to call while the run is in progress.
func (r *Recorder) Dropped() uint64 {
	var total uint64
	for _, t := range r.Tracks() {
		total += t.Dropped()
	}
	return total
}

// Track is one fixed-capacity event ring with a single writer (one
// goroutine / one simulated thread context). Append overwrites the oldest
// event when the ring is full — the flight-recorder keeps the newest
// window and counts what it dropped.
type Track struct {
	name string
	id   uint16
	// chunks holds the ring, chunkLen events per chunk (a single chunk of
	// the whole capacity when that is smaller); a chunk stays nil until
	// the first Append into it. Only the owning goroutine touches it while
	// the run is in progress.
	chunks [][]Event
	cap    uint64 // the ring's capacity, a power of two
	// n counts appends. It is written only by the owning goroutine but read
	// by concurrent Len/Dropped (the live /metrics scrape), hence atomic.
	n atomic.Uint64
	// sw tees appends to the attached stream writer (nil when not
	// streaming); ring is the per-track staging ring of a background
	// writer (nil in direct mode), and streamDrops and streamDropC count
	// the events a full staging ring rejected. obs is the recorder-level
	// observer captured at track creation (nil when none).
	sw          *StreamWriter
	ring        *spsc.Ring[Event]
	streamDrops atomic.Uint64
	streamDropC *Counter
	obs         func(track uint16, ev Event)
}

// Name returns the track name.
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// ID returns the track's creation-order index, used as the track id in the
// on-disk stream format.
func (t *Track) ID() uint16 {
	if t == nil {
		return 0
	}
	return t.id
}

// Append records an event. It is wait-free: one slot store and one counter
// increment, no locks (the optional disk stream adds one staging-ring
// push). Until the ring first fills, the first Append into each chunk
// allocates that chunk — at most once per chunkLen events; once every chunk
// exists Append never allocates. Append must only be called by the track's
// owning goroutine. A nil track ignores the event.
func (t *Track) Append(ev Event) {
	if t == nil {
		return
	}
	n := t.n.Load()
	i := n & (t.cap - 1)
	c := t.chunks[i>>chunkShift]
	if c == nil {
		c = make([]Event, min(t.cap, chunkLen))
		t.chunks[i>>chunkShift] = c
	}
	c[i&(chunkLen-1)] = ev
	t.n.Store(n + 1)
	if t.sw != nil {
		t.sw.tee(t, ev)
	}
	if t.obs != nil {
		t.obs(t.id, ev)
	}
}

// Len returns the number of retained events (at most the track capacity).
// Like Dropped it reads only the append count and the fixed capacity, never
// the chunks, so it is safe while the owning goroutine is appending.
func (t *Track) Len() int {
	if t == nil {
		return 0
	}
	return int(min(t.n.Load(), t.cap))
}

// Dropped returns how many events were overwritten because the ring was
// full. It is safe to call while the owning goroutine is still appending.
func (t *Track) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if n := t.n.Load(); n > t.cap {
		return n - t.cap
	}
	return 0
}

// Events returns the retained events in append order (oldest first). It
// must not run concurrently with Append; exporters call it after the run.
func (t *Track) Events() []Event {
	if t == nil {
		return nil
	}
	n := t.n.Load()
	if n == 0 {
		return nil
	}
	if n <= t.cap {
		return t.appendSlots(make([]Event, 0, n), 0, n)
	}
	head := n & (t.cap - 1)
	out := make([]Event, 0, t.cap)
	out = t.appendSlots(out, head, t.cap)
	return t.appendSlots(out, 0, head)
}

// appendSlots appends the ring slots [from, to) to out, chunk by chunk.
// Every slot in the range has been written, so its chunk exists.
func (t *Track) appendSlots(out []Event, from, to uint64) []Event {
	for from < to {
		c := t.chunks[from>>chunkShift]
		off := from & (chunkLen - 1)
		end := min(to-from+off, uint64(len(c)))
		out = append(out, c[off:end]...)
		from += end - off
	}
	return out
}
