package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceEvent is one Chrome trace_event entry. Only the fields the viewers
// need are modelled: complete slices ("X") and metadata records ("M").
// Timestamps and durations are in the simulator's cycle domain, written into
// the microsecond fields the Trace Event Format defines — viewers only care
// about relative magnitudes. Dur is always written: a complete event without
// one is malformed, and zero-length nodes (an MT walk annotation) are real.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the recorder's exemplars (TopSpans) as Chrome
// trace_event JSON ({"displayTimeUnit":"ns","traceEvents":[...]}), the
// format Perfetto and about://tracing load directly.
//
// Each exemplar is one process, slowest first (pid 1 is the slowest), named
// after its access index, core and total cycles. Every span node becomes
// exactly one complete ("X") event at ts = Start, in cycles from the
// access's issue. The fetch race's walk, counter and data chains overlap
// without nesting, so each cause gets its own thread track (tid = the
// cause, named by its String). A node that outlives its access — a MAC
// fetch off the critical path — is clipped to the access's [0, Total]
// window, with the unclipped duration kept in args.dur.
func (r *SpanRecorder) WriteChromeTrace(w io.Writer) error {
	var events []TraceEvent
	for rank, a := range r.TopSpans() {
		pid := rank + 1
		var used [numSpanCauses]bool
		slices := appendSpanSlices(nil, &a.Root, pid, a.Total, &used)
		events = append(events, TraceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{
			"name": fmt.Sprintf("access %d core %d (%d cycles)", a.Index, a.Core, a.Total)}})
		for c, ok := range used {
			if ok {
				events = append(events, TraceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: c,
					Args: map[string]any{"name": SpanCause(c).String()}})
			}
		}
		events = append(events, slices...)
	}

	// One event per line keeps large traces and the golden file diffable.
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	sep := "\n"
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		sep = ",\n"
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// appendSpanSlices appends one complete event per node of the subtree, in
// pre-order, and marks the causes it used.
func appendSpanSlices(dst []TraceEvent, sp *Span, pid int, total uint64, used *[numSpanCauses]bool) []TraceEvent {
	used[sp.Cause] = true
	ev := TraceEvent{Name: sp.Label, Ph: "X", Ts: sp.Start, Dur: sp.Dur, Pid: pid, Tid: int(sp.Cause)}
	if ev.Name == "" {
		ev.Name = sp.Cause.String()
	}
	if sp.Value != 0 {
		ev.Args = map[string]any{"value": sp.Value}
	}
	if sp.Start+sp.Dur > total {
		ev.Dur = 0
		if sp.Start < total {
			ev.Dur = total - sp.Start
		}
		if ev.Args == nil {
			ev.Args = map[string]any{}
		}
		ev.Args["dur"] = sp.Dur
	}
	dst = append(dst, ev)
	for i := range sp.Children {
		dst = appendSpanSlices(dst, &sp.Children[i], pid, total, used)
	}
	return dst
}
