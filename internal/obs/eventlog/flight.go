package eventlog

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// DefaultSlowAfter is the default latency at which a served query is marked
// slow.
const DefaultSlowAfter = 250 * time.Millisecond

// FlightRecorder retains recently served events so an operator can ask
// "what did the last slow query actually do?" without reproducing it
// offline. Two retention classes ride in fixed-size rings:
//
//   - recent: every event, newest overwriting oldest — the short-horizon
//     picture of current traffic.
//   - slow: events marked Slow, errored, or server-failed — retained on
//     their own ring so a burst of fast queries cannot flush the
//     interesting ones.
//
// Memory is bounded by construction: each ring holds at most its configured
// event count, and an overwritten event is reclaimed by the garbage
// collector once the last reader drops it. Recording is lock-free (one
// atomic counter increment plus one atomic pointer store per ring) so the
// serving hot path never queues behind a reader; readers take point-in-time
// snapshots via atomic loads and may observe an event at most once shifted
// during a concurrent wrap, never a torn one.
type FlightRecorder struct {
	recent    ring
	slow      ring
	slowAfter time.Duration
}

type ring struct {
	slots []atomic.Pointer[Event]
	pos   atomic.Uint64
}

func (r *ring) record(e *Event) {
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(e)
}

// snapshot returns the live events newest-first.
func (r *ring) snapshot() []*Event {
	n := len(r.slots)
	out := make([]*Event, 0, n)
	pos := r.pos.Load()
	for k := 0; k < n; k++ {
		// Walk backward from the most recently written slot.
		i := (pos + uint64(n) - 1 - uint64(k)) % uint64(n)
		if e := r.slots[i].Load(); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// NewFlightRecorder returns a recorder retaining the last recentN events
// and, separately, the last slowN slow/errored ones. slowAfter is the
// threshold the serving process marks events Slow at; the recorder reports
// it on /debug/queries (<= 0 selects DefaultSlowAfter). Sizes below 1 are
// raised to 1.
func NewFlightRecorder(recentN, slowN int, slowAfter time.Duration) *FlightRecorder {
	if slowAfter <= 0 {
		slowAfter = DefaultSlowAfter
	}
	return &FlightRecorder{
		recent:    ring{slots: make([]atomic.Pointer[Event], max(recentN, 1))},
		slow:      ring{slots: make([]atomic.Pointer[Event], max(slowN, 1))},
		slowAfter: slowAfter,
	}
}

// SlowAfter returns the slow threshold.
func (f *FlightRecorder) SlowAfter() time.Duration { return f.slowAfter }

// Record files an event in the recent ring, and additionally in the slow
// ring when it is marked Slow, carries an error, or has a status of 500 or
// more. It never writes to the event. Nil-safe: a nil recorder drops the
// event after one branch.
func (f *FlightRecorder) Record(e *Event) {
	if f == nil || e == nil {
		return
	}
	f.recent.record(e)
	if e.Slow || e.Err != "" || e.Status >= 500 {
		f.slow.record(e)
	}
}

// Recent returns the retained recent events, newest first.
func (f *FlightRecorder) Recent() []*Event { return f.recent.snapshot() }

// Slow returns the retained slow/errored events, newest first.
func (f *FlightRecorder) Slow() []*Event { return f.slow.snapshot() }

// ServeHTTP serves the retained events: JSON by default, WriteText's
// rendering with ?format=text. GET only.
func (f *FlightRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	recent, slow := f.Recent(), f.Slow()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "slow threshold: %s\n\nrecent (%d):\n", f.slowAfter, len(recent))
		for _, e := range recent {
			e.WriteText(w)
		}
		fmt.Fprintf(w, "\nslow (%d):\n", len(slow))
		for _, e := range slow {
			e.WriteText(w)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		SlowAfter string   `json:"slow_after"`
		Recent    []*Event `json:"recent"`
		Slow      []*Event `json:"slow"`
	}{f.slowAfter.String(), recent, slow})
}

// getOnly answers a non-GET request with the JSON 405 the rest of the
// serving surface uses and reports whether the request is a GET.
func getOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	w.Header().Set("Allow", http.MethodGet)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusMethodNotAllowed)
	fmt.Fprintf(w, "{\"error\":\"method %s not allowed\"}\n", r.Method)
	return false
}
