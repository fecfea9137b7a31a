package telemetry

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTracerGoldenJSON pins the trace_event export of the hand-driven
// counter-miss tree byte-for-byte. Regenerate with
// `go test ./internal/telemetry -run TracerGolden -update`.
func TestTracerGoldenJSON(t *testing.T) {
	var out strings.Builder
	if err := ctrNestingRecorder().WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()

	path := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("trace JSON diverged from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTracerJSONShape checks the export is a document Perfetto ingests: one
// object with a traceEvents array, process_name metadata first, a
// thread_name for every track a slice lands on, and one complete event per
// span node.
func TestTracerJSONShape(t *testing.T) {
	var out strings.Builder
	if err := ctrNestingRecorder().WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 || doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Name != "process_name" {
		t.Fatalf("first event = %+v, want process_name metadata", doc.TraceEvents)
	}
	named := map[[2]int]bool{}
	slices := 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			named[[2]int{ev.Pid, ev.Tid}] = true
		case ev.Ph == "X":
			slices++
			if !named[[2]int{ev.Pid, ev.Tid}] {
				t.Errorf("slice %q on unnamed track %d", ev.Name, ev.Tid)
			}
		}
	}
	// access, level miss, fetch, walk, ctr (+ fault retry, MT walk), data,
	// trailing fault retry and MAC fetch.
	if slices != 10 {
		t.Errorf("got %d complete events, want 10 (one per span node)", slices)
	}
}

func TestChromeTraceEmptyRecorder(t *testing.T) {
	var out strings.Builder
	if err := NewSpanRecorder(1, 4).WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.TraceEvents == nil || len(doc.TraceEvents) != 0 {
		t.Errorf("empty recorder exported %v, want an empty traceEvents list", doc.TraceEvents)
	}
}
