package cliflags

import (
	"bufio"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosmos/internal/memsys"
	"cosmos/internal/obs"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
)

const attachAccesses = 20_000

func newSystem() *sim.System {
	cfg := sim.DefaultConfig()
	cfg.MC.MemBytes = 1 << 30
	return sim.New(cfg, secmem.DesignCosmos())
}

func runSystem(s *sim.System) sim.Results {
	gen := trace.NewUniform(memsys.Region{Base: 0, Size: 512 << 20, Elem: 1}, 20, 4, 7)
	return s.Run(trace.Limit(gen, attachAccesses), attachAccesses)
}

var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

func TestAttachWritesSinksAndRegistersHubs(t *testing.T) {
	dir := t.TempDir()
	statsPath := filepath.Join(dir, "u_COSMOS.jsonl")
	tracePath := filepath.Join(dir, "u_COSMOS.trace.json")
	spans := &Spans{SampleEvery: 64, TopK: 4, Watch: true}
	spanHub, watchHub := obs.NewSpanHub(), obs.NewWatchHub()

	s := newSystem()
	reg, cleanup, err := Attach(s, "u_COSMOS", spans, statsPath, 5_000, tracePath,
		discard, nil, spanHub, watchHub)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Kind("span.sampled"); !ok {
		t.Error("span metrics missing from the returned registry")
	}
	r := runSystem(s)
	if err := cleanup(); err != nil {
		t.Fatalf("cleanup: %v", err)
	}
	if r.Tail == nil {
		t.Error("no Results.Tail: the span recorder was not attached")
	}

	// JSONL: one row per 5k-access interval.
	f, err := os.Open(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("stats row is not JSON: %v", err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 4 || rows[3]["accesses"].(float64) != attachAccesses {
		t.Fatalf("got %d stats rows, want 4 ending at %d: %v", len(rows), attachAccesses, rows)
	}

	// Trace: a Chrome trace with one named process per exemplar.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []telemetry.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	named, slices := map[int]bool{}, 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			named[ev.Pid] = true
		case ev.Ph == "X":
			slices++
			if !named[ev.Pid] {
				t.Fatalf("slice %q on unnamed pid %d", ev.Name, ev.Pid)
			}
		}
	}
	if len(named) != 4 || slices == 0 {
		t.Fatalf("trace has %d processes and %d slices, want 4 and some", len(named), slices)
	}

	// Both hubs serve the run under its label.
	if got := spanHub.Snapshot(); len(got) != 1 || got[0].Run != "u_COSMOS" || len(got[0].Top) != 4 {
		t.Fatalf("span hub = %+v", got)
	}
	if got := watchHub.Snapshot(); len(got) != 1 || got[0].Run != "u_COSMOS" {
		t.Fatalf("watch hub = %+v", got)
	}
}

func TestAttachCSVBySuffix(t *testing.T) {
	statsPath := filepath.Join(t.TempDir(), "u.csv")
	s := newSystem()
	_, cleanup, err := Attach(s, "u", &Spans{}, statsPath, 5_000, "", discard, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	runSystem(s)
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "interval,accesses,delta,") {
		t.Fatalf("got %d CSV lines starting %q, want header + 4 rows", len(lines), lines[0])
	}
}

// TestAttachReturnsSinkErrors pins the contract campaign workers rely on:
// an unwritable trace path surfaces as the cleanup's error, not an exit.
func TestAttachReturnsSinkErrors(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "missing", "u.trace.json")
	s := newSystem()
	_, cleanup, err := Attach(s, "u", &Spans{SampleEvery: 64, TopK: 4}, "", 5_000, tracePath,
		discard, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	runSystem(s)
	if err := cleanup(); err == nil || !strings.Contains(err.Error(), "trace sink") {
		t.Fatalf("cleanup error = %v, want a trace sink error", err)
	}
}

func TestAttachTraceNeedsSpanSample(t *testing.T) {
	_, _, err := Attach(newSystem(), "u", &Spans{}, "", 5_000, "u.trace.json", discard, nil, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "-span-sample") {
		t.Fatalf("error = %v, want one naming -span-sample", err)
	}
}
