package eventlog

import "hash/fnv"

// KeepTrace reports whether a trace ID survives OK-event sampling at rate
// (0 drops everything, 1 keeps everything). The decision is a pure function
// of the trace ID — FNV-64a of its bytes mapped to [0,1) and compared to the
// rate — so a capture taken at a given rate is replayable: the same IDs are
// kept on every replica, every restart, and every re-run of the workload.
func KeepTrace(traceID string, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(traceID))
	return float64(h.Sum64())/(1<<64) < rate
}

// Keep is the head/tail sampling rule of the event log: Slow events and
// non-OK events are always kept — the tail an investigation needs must never
// be sampled away — while the other OK events pass through the
// deterministic KeepTrace gate.
func Keep(e *Event, rate float64) bool {
	return e.Outcome != OutcomeOK || e.Slow || KeepTrace(e.TraceID, rate)
}
