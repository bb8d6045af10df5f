package eventlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// FileWriter is the sink's write target: an os.File in production, a
// fault-injecting wrapper (faultfs.TornWriter over a file) in crash tests.
type FileWriter interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Options configures a Sink. Zero values select the defaults noted on each
// field.
type Options struct {
	// Dir is the log directory (created if absent). Required.
	Dir string
	// MaxFileBytes rotates the current file once appending the next event
	// would exceed it (<= 0 selects 64 MiB). Rotation syncs the finished
	// file to stable storage before the next one opens, so a crash can only
	// tear the line most recently in flight.
	MaxFileBytes int64
	// SampleRate is the deterministic keep rate for OK events (Slow and
	// non-OK events are always kept); 1 keeps everything, 0 keeps only the
	// always-kept tail. Callers pass the rate verbatim — there is no
	// "unset" sentinel, so 0 means 0.
	SampleRate float64
	// QueueSize bounds the buffered channel between Record and the writer
	// goroutine (<= 0 selects 1024). A full queue drops the event and
	// counts it — recording never blocks a query.
	QueueSize int
	// OpenFile opens a log file for writing; nil selects os.Create. Tests
	// substitute fault-injecting writers here.
	OpenFile func(path string) (FileWriter, error)
}

// Stats is a point-in-time snapshot of a Sink's counters.
type Stats struct {
	// Written counts events durably handed to the current file.
	Written int64
	// Dropped counts events lost to a full queue or recorded after Close.
	Dropped int64
	// SampledOut counts OK events the deterministic sampler skipped.
	SampledOut int64
	// Rotations counts finished (synced and closed) log files.
	Rotations int64
}

// Sink is the asynchronous event-log writer: Record enqueues (never blocks,
// never touches the filesystem on the caller's goroutine) and a single
// writer goroutine appends one JSONL line per event to size-rotated
// events-XXXXXXXX.jsonl files. Each line is written in one Write call, so a
// crash tears at most the final line — which Scan skips. A Sink opens a
// fresh file per process (it never appends to a predecessor's possibly-torn
// tail), syncs on rotation and on Close, and is safe for concurrent Record,
// including Record racing or following Close.
type Sink struct {
	opts   Options
	ch     chan *Event // never closed; Close enqueues a nil end marker
	done   chan struct{}
	once   sync.Once
	closed atomic.Bool

	written    atomic.Int64
	dropped    atomic.Int64
	sampledOut atomic.Int64
	rotations  atomic.Int64
	lastErr    atomic.Pointer[error]

	// Writer-goroutine state; never touched by Record.
	cur     FileWriter
	curSize int64
	nextIdx int
}

func osOpenFile(path string) (FileWriter, error) { return os.Create(path) }

// eventFilePattern names log files so lexical order is chronological order.
const eventFilePattern = "events-%08d.jsonl"

// Open creates the log directory if needed, opens the next log file in the
// sequence (existing files from prior runs are preserved and never appended
// to), and starts the writer goroutine.
func Open(opts Options) (*Sink, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("eventlog: Options.Dir is required")
	}
	if opts.MaxFileBytes <= 0 {
		opts.MaxFileBytes = 64 << 20
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = 1024
	}
	if opts.OpenFile == nil {
		opts.OpenFile = osOpenFile
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventlog: creating %s: %w", opts.Dir, err)
	}
	s := &Sink{
		opts: opts,
		ch:   make(chan *Event, opts.QueueSize),
		done: make(chan struct{}),
	}
	files, err := Files(opts.Dir)
	if err != nil {
		return nil, err
	}
	s.nextIdx = 1
	for _, f := range files {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(f), eventFilePattern, &idx); err == nil && idx >= s.nextIdx {
			s.nextIdx = idx + 1
		}
	}
	if err := s.openNext(); err != nil {
		return nil, err
	}
	go s.run()
	return s, nil
}

func (s *Sink) openNext() error {
	path := filepath.Join(s.opts.Dir, fmt.Sprintf(eventFilePattern, s.nextIdx))
	w, err := s.opts.OpenFile(path)
	if err != nil {
		return fmt.Errorf("eventlog: opening %s: %w", path, err)
	}
	s.cur = w
	s.curSize = 0
	s.nextIdx++
	return nil
}

// Record enqueues an event for asynchronous persistence, applying the
// head/tail sampling rule first. It never blocks and never panics: a full
// queue, or a sink already closed, drops the event and counts the drop.
// Nil-safe — a nil Sink (logging disabled) costs one branch.
func (s *Sink) Record(e *Event) {
	if s == nil || e == nil {
		return
	}
	if s.closed.Load() {
		s.dropped.Add(1)
		return
	}
	if !Keep(e, s.opts.SampleRate) {
		s.sampledOut.Add(1)
		return
	}
	select {
	case s.ch <- e:
	default:
		s.dropped.Add(1)
	}
}

func (s *Sink) run() {
	defer close(s.done)
	for e := <-s.ch; e != nil; e = <-s.ch {
		s.write(e)
	}
	if s.cur != nil {
		if err := s.cur.Sync(); err != nil {
			s.setErr(err)
		}
		if err := s.cur.Close(); err != nil {
			s.setErr(err)
		}
		s.cur = nil
	}
}

func (s *Sink) write(e *Event) {
	line, err := json.Marshal(e)
	if err != nil {
		s.setErr(err)
		return
	}
	line = append(line, '\n')
	if s.curSize > 0 && s.curSize+int64(len(line)) > s.opts.MaxFileBytes {
		if err := s.rotate(); err != nil {
			s.setErr(err)
			return
		}
	}
	// One Write call per line: a torn write can only damage this line, never
	// reach back into previously written events.
	n, err := s.cur.Write(line)
	s.curSize += int64(n)
	if err != nil {
		s.setErr(err)
		return
	}
	s.written.Add(1)
}

// rotate finishes the current file — sync to stable storage, then close —
// before opening the next, so every rotated-out file is durable in full.
func (s *Sink) rotate() error {
	if err := s.cur.Sync(); err != nil {
		return err
	}
	if err := s.cur.Close(); err != nil {
		return err
	}
	s.rotations.Add(1)
	return s.openNext()
}

func (s *Sink) setErr(err error) { s.lastErr.Store(&err) }

// Err returns the most recent write-path error (nil when healthy). The sink
// keeps accepting events after an error — a transiently full disk should
// not end capture for the process's lifetime.
func (s *Sink) Err() error {
	if s == nil {
		return nil
	}
	if p := s.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats snapshots the sink's counters. Nil-safe.
func (s *Sink) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	dropped := s.dropped.Load()
	select {
	case <-s.done:
		// The writer has exited: a Record that raced Close past the end
		// marker left its event queued, never to be written.
		dropped += int64(len(s.ch))
	default:
	}
	return Stats{
		Written:    s.written.Load(),
		Dropped:    dropped,
		SampledOut: s.sampledOut.Load(),
		Rotations:  s.rotations.Load(),
	}
}

// Close writes every event queued before it, syncs the final file, and
// closes it. It is safe to call more than once and while Record runs: a
// Record that follows Close, or loses a race with it, drops its event and
// counts it in Stats.Dropped. Stop producing first for a complete log (the
// serving shutdown sequence drains in-flight queries before closing the
// sink).
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	s.once.Do(func() {
		s.closed.Store(true)
		s.ch <- nil // end marker: the writer stops after everything queued ahead of it
	})
	<-s.done
	return s.Err()
}
