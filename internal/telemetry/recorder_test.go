package telemetry

import (
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// TestTrackMatchesReferenceRing checks the chunked ring against a plain
// reference ring at the capacities and append counts where chunking could
// go wrong: empty, one event, each side of a chunk boundary, each side of
// the first wrap, and several wraps past it.
func TestTrackMatchesReferenceRing(t *testing.T) {
	for _, capacity := range []int{1, 16, chunkLen, 4 * chunkLen, DefaultTrackCap} {
		counts := []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1,
			capacity - 1, capacity, capacity + 1, 3*capacity + 5}
		for _, n := range counts {
			tr := NewRecorder(capacity).Track("t")
			var ref []Event // every appended event; the ring keeps the tail
			for i := 0; i < n; i++ {
				ev := Event{TS: int64(i), Act: uint64(3 * i), Arg: -int64(i), Flow: uint32(i), Label: uint16(i), Kind: KindScan}
				tr.Append(ev)
				ref = append(ref, ev)
			}
			keep := min(n, capacity)
			want := ref[n-keep:]
			if got := tr.Len(); got != keep {
				t.Errorf("cap %d, %d appends: Len = %d, want %d", capacity, n, got, keep)
			}
			if got, want := tr.Dropped(), uint64(n-keep); got != want {
				t.Errorf("cap %d, %d appends: Dropped = %d, want %d", capacity, n, got, want)
			}
			got := tr.Events()
			if len(got) != len(want) {
				t.Errorf("cap %d, %d appends: %d events, want %d", capacity, n, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("cap %d, %d appends: event %d = %+v, want %+v", capacity, n, i, got[i], want[i])
					break
				}
			}
		}
	}
}

// TestTrackChunkAllocs gates the recorder's memory: a default-capacity
// track allocates one chunk per chunkLen events it has written, up to its
// capacity, and nothing once the ring has wrapped. Each case fills fresh
// tracks built before testing.AllocsPerRun counts, one per run, so only
// their appends are measured; AllocsPerRun counts on one P and truncates
// its average, so a stray allocation of another goroutine does not land in
// a track's count. The collector is off while it counts, so the runtime's
// own per-cycle allocations stay out.
func TestTrackChunkAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 8
	ev := Event{TS: 1, Kind: KindScan}
	for _, n := range []int{1, chunkLen - 1, chunkLen, chunkLen + 1, 5000,
		DefaultTrackCap, DefaultTrackCap + 1, 2 * DefaultTrackCap} {
		runtime.GC()                     // free the previous case's tracks
		tracks := make([]*Track, runs+1) // one more for AllocsPerRun's warm-up call
		for i := range tracks {
			tracks[i] = NewRecorder(DefaultTrackCap).Track("t")
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			tr := tracks[next]
			next++
			for i := 0; i < n; i++ {
				tr.Append(ev)
			}
		})
		chunks := (min(n, DefaultTrackCap) + chunkLen - 1) / chunkLen
		if got > float64(chunks) {
			t.Errorf("%d appends allocated %v objects, want at most %d chunks", n, got, chunks)
		}
	}
	tr := NewRecorder(DefaultTrackCap).Track("t")
	for i := 0; i <= DefaultTrackCap; i++ {
		tr.Append(ev)
	}
	if avg := testing.AllocsPerRun(10*chunkLen, func() { tr.Append(ev) }); avg != 0 {
		t.Errorf("Append on a wrapped track allocates %v allocs/op, want 0", avg)
	}
}

// TestTrackChunksRaceScrapes runs the live /metrics readers of a track
// against its producer while Append adds every chunk and wraps the ring
// twice: Len and Dropped read the fixed capacity and the atomic count, never
// the chunk table. Run it with -race.
func TestTrackChunksRaceScrapes(t *testing.T) {
	sink := NewSink(DefaultTrackCap)
	tr := sink.Rec.Track("hot")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastLen int
		var lastDropped uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			n, d := tr.Len(), tr.Dropped()
			if n < lastLen || n > DefaultTrackCap || d < lastDropped {
				t.Errorf("Len %d after %d, Dropped %d after %d", n, lastLen, d, lastDropped)
				return
			}
			lastLen, lastDropped = n, d
			if rd := sink.Rec.Dropped(); rd < d {
				t.Errorf("Recorder.Dropped %d below the track's %d", rd, d)
				return
			}
			if err := sink.WriteMetrics(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const n = 3 * DefaultTrackCap
	for i := 0; i < n; i++ {
		tr.Append(Event{TS: int64(i), Kind: KindScan})
	}
	close(done)
	wg.Wait()
	if tr.Len() != DefaultTrackCap || tr.Dropped() != n-DefaultTrackCap {
		t.Fatalf("Len %d Dropped %d, want %d and %d", tr.Len(), tr.Dropped(), DefaultTrackCap, n-DefaultTrackCap)
	}
}
