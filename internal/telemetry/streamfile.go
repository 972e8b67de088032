package telemetry

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
)

// NewStreamFile creates a StreamWriter that owns its output files. With
// opts.RotateBytes == 0 it writes one plain file at path, exactly like
// NewStreamWriter over an os.File the caller would own. With
// opts.RotateBytes > 0 it writes gzip-compressed segments path.0.gz,
// path.1.gz, …, starting a new segment whenever the current one crosses the
// threshold (measured on uncompressed encoded bytes, so the cut point is
// deterministic for same-seed sim runs). Each segment restates the header
// and every definition seen so far, making every segment independently
// readable; OpenLogSet reassembles the set into one Log.
func NewStreamFile(path, timebase string, opts StreamOptions) (*StreamWriter, error) {
	out := &segmentedFile{path: path, rotate: opts.RotateBytes > 0}
	w, err := out.openSegment()
	if err != nil {
		return nil, err
	}
	sw := newStreamWriterCore(w, timebase, opts)
	sw.out = out
	sw.rotateBytes = opts.RotateBytes
	if sw.reg != nil && sw.rotateBytes > 0 {
		sw.rotationsC = sw.reg.Counter("chainmon_stream_rotations_total",
			"Segment rotations of the streaming trace sink.")
	}
	sw.writeHeaderLocked()
	if sw.err != nil {
		out.closeSegment()
		return nil, sw.err
	}
	sw.start()
	return sw, nil
}

// maybeRotateLocked cuts a new segment once the current one crosses the
// rotation threshold; callers hold sw.mu. Re-entrancy while the new
// segment's header and defs are being replayed is suppressed, so a
// threshold smaller than the def preamble still terminates.
func (sw *StreamWriter) maybeRotateLocked() {
	if sw.rotateBytes <= 0 || sw.out == nil || sw.rotating || sw.err != nil {
		return
	}
	if sw.segBytes < uint64(sw.rotateBytes) {
		return
	}
	sw.rotating = true
	defer func() { sw.rotating = false }()
	if err := sw.bw.Flush(); err != nil {
		sw.err = err
		return
	}
	if err := sw.out.closeSegment(); err != nil {
		sw.err = err
		return
	}
	w, err := sw.out.openSegment()
	if err != nil {
		sw.err = err
		return
	}
	sw.bw.Reset(w)
	sw.segBytes = 0
	sw.rotations++
	if sw.rotationsC != nil {
		sw.rotationsC.Inc()
	}
	sw.writeHeaderLocked()
	for _, d := range sw.defs {
		sw.writeRecordLocked(d.typ, d.payload)
	}
}

// segmentedFile manages the file (or gzip segment sequence) a file-owning
// StreamWriter writes into.
type segmentedFile struct {
	path   string
	rotate bool
	index  int
	file   *os.File
	gzw    *gzip.Writer
}

func (s *segmentedFile) openSegment() (io.Writer, error) {
	name := s.path
	if s.rotate {
		name = segmentName(s.path, s.index)
		s.index++
	}
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	s.file = f
	if s.rotate {
		s.gzw = gzip.NewWriter(f)
		return s.gzw, nil
	}
	return f, nil
}

// flush pushes buffered gzip data to the file so a killed run leaves a
// readable (if truncated) final segment.
func (s *segmentedFile) flush() error {
	if s.gzw != nil {
		return s.gzw.Flush()
	}
	return nil
}

func (s *segmentedFile) closeSegment() error {
	var first error
	if s.gzw != nil {
		if err := s.gzw.Close(); err != nil {
			first = err
		}
		s.gzw = nil
	}
	if s.file != nil {
		if err := s.file.Close(); err != nil && first == nil {
			first = err
		}
		s.file = nil
	}
	return first
}

// segmentName is the on-disk name of rotated segment i of a base path.
func segmentName(path string, i int) string {
	return fmt.Sprintf("%s.%d.gz", path, i)
}

// OpenLogSet opens an event log at path regardless of how it was written:
// a plain CHMTRC01 file, a single gzip-compressed file, or a rotated
// segment set path.0.gz, path.1.gz, … (when path itself does not exist).
// Rotated segments are merged into one Log — the definition replay at each
// segment start is recognized and deduplicated — and a truncated final
// segment (a run killed mid-flush) is tolerated and flagged just like
// ReadLog tolerates a truncated trailing record. A cut earlier segment is
// an error.
func OpenLogSet(path string) (*Log, error) {
	if _, err := os.Stat(path); err == nil {
		l := newLog()
		if err := readLogFile(l, path); err != nil {
			return nil, err
		}
		return l, nil
	}
	var segs []string
	for i := 0; ; i++ {
		seg := segmentName(path, i)
		if _, err := os.Stat(seg); err != nil {
			break
		}
		segs = append(segs, seg)
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("telemetry: no event log at %s (or %s)", path, segmentName(path, 0))
	}
	l := newLog()
	for i, seg := range segs {
		err := readLogFile(l, seg)
		if last := i == len(segs)-1; !last && err == nil && l.Truncated {
			err = errors.New("ends inside a record") // later segments would follow a gap
		} else if last && err != nil && isTruncation(err) {
			// A final segment cut off before its header completed (run
			// killed right after rotating) is the same benign truncation
			// readFrom tolerates inside a record.
			l.Truncated, err = true, nil
		}
		if err != nil {
			return nil, fmt.Errorf("telemetry: segment %s: %w", seg, err)
		}
	}
	return l, nil
}

// isTruncation reports whether err is a bare end-of-input — the signature
// of a segment truncated before its gzip or CHMTRC01 header finished.
func isTruncation(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// readLogFile parses one log file into l, transparently decompressing gzip
// (sniffed from the two-byte magic, so plain and compressed files share a
// code path).
func readLogFile(l *Log, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(2)
	if err == nil && head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return fmt.Errorf("telemetry: %s: %w", path, err)
		}
		defer gz.Close()
		return l.readFrom(gz)
	}
	return l.readFrom(br)
}
