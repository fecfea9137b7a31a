package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosmos/internal/secmem"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden span-tree testdata")

// spanRun is goldenRun with a span recorder attached: COSMOS on mcf,
// pinned seed, sampling 1 access in 2000 and keeping the 4 slowest trees.
func spanRun(t *testing.T, rec *telemetry.SpanRecorder) Results {
	t.Helper()
	d, err := secmem.DesignByName("COSMOS")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MC.Seed = 42
	cfg.MC.Params.Seed = 42
	gen, err := workloads.Build("mcf", workloads.Options{Threads: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg, d)
	if rec != nil {
		s.AttachSpans(rec)
	}
	return s.Run(trace.Limit(gen, 100000), 100000)
}

// TestSpanGoldenCosmosMcf pins the span trees of a COSMOS/mcf run: the
// slowest sampled exemplars, with full child structure, must match the
// committed JSON byte-for-byte. Sampling is a pure function of the access
// stream, so any drift means the timing model or the span assembly changed.
// Regenerate with `go test ./internal/sim/ -run SpanGolden -update`.
func TestSpanGoldenCosmosMcf(t *testing.T) {
	rec := telemetry.NewSpanRecorder(2000, 4)
	r := spanRun(t, rec)

	if rec.Sampled() != 50 {
		t.Fatalf("sampled %d trees from 100000 accesses at 1-in-2000, want 50", rec.Sampled())
	}
	if r.Tail == nil {
		t.Fatal("Results.Tail nil with a recorder attached")
	}
	got, err := json.MarshalIndent(rec.TopSpans(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "span_cosmos_mcf.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("span trees drifted from %s (run with -update to regenerate):\n%s", path, got)
	}
}

// TestSpanTreeShape sanity-checks the exemplar structure the golden pins:
// roots are access spans whose duration equals the reported total, off-chip
// trees carry a fetch node with walk, counter and data children, and the
// tail block's percentiles are coherent.
func TestSpanTreeShape(t *testing.T) {
	rec := telemetry.NewSpanRecorder(2000, 4)
	r := spanRun(t, rec)

	top := rec.TopSpans()
	if len(top) != 4 {
		t.Fatalf("top-K kept %d exemplars, want 4", len(top))
	}
	sawFetch := false
	for _, a := range top {
		if a.Root.Cause != telemetry.CauseAccess || a.Root.Dur != a.Total {
			t.Fatalf("exemplar %d root = %+v, want access/%d", a.Index, a.Root, a.Total)
		}
		for _, ch := range a.Root.Children {
			if ch.Cause != telemetry.CauseFetch {
				continue
			}
			sawFetch = true
			var walk, ctr, data bool
			for _, g := range ch.Children {
				switch g.Cause {
				case telemetry.CauseWalk:
					walk = true
				case telemetry.CauseCtrHit, telemetry.CauseCtrMiss:
					ctr = true
				case telemetry.CauseDataDRAM:
					data = true
				}
			}
			if !walk || !ctr || !data {
				t.Fatalf("fetch node of access %d missing chains (walk %v ctr %v data %v): %+v",
					a.Index, walk, ctr, data, ch.Children)
			}
		}
	}
	if !sawFetch {
		t.Fatal("no off-chip exemplar among the slowest trees")
	}

	acc := r.Tail.Stat("access")
	fetch := r.Tail.Stat("fetch")
	if acc == nil || acc.Count != r.Accesses {
		t.Fatalf("access stat = %+v, want count %d", acc, r.Accesses)
	}
	if fetch == nil || fetch.Count != r.OffChipReads {
		t.Fatalf("fetch stat = %+v, want count %d", fetch, r.OffChipReads)
	}
	if fetch.P99 < fetch.P50 || fetch.P999 < fetch.P99 || float64(fetch.Max) < fetch.P999 {
		t.Fatalf("incoherent fetch percentiles: %+v", fetch)
	}
	if r.Tail.Stat("ctr_hit") == nil && r.Tail.Stat("ctr_miss") == nil {
		t.Fatal("no counter distribution in the tail block")
	}

}

// TestRunRecordsChromeTrace exports the exemplars of the COSMOS/mcf span run
// as a Chrome trace: the JSON parses, each tree is one process with one
// complete event per span node, every event stays inside its process root's
// [0, total] window, and the fetch race's walk and data chains have slices.
func TestRunRecordsChromeTrace(t *testing.T) {
	rec := telemetry.NewSpanRecorder(2000, 4)
	spanRun(t, rec)
	top := rec.TopSpans()
	if len(top) == 0 {
		t.Fatal("no exemplars recorded")
	}

	var out strings.Builder
	if err := rec.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []telemetry.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	slices := map[int]int{}
	causes := map[telemetry.SpanCause]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Pid < 1 || ev.Pid > len(top) {
			t.Fatalf("event %q on pid %d, want 1..%d", ev.Name, ev.Pid, len(top))
		}
		slices[ev.Pid]++
		causes[telemetry.SpanCause(ev.Tid)] = true
		if total := top[ev.Pid-1].Total; ev.Ts+ev.Dur > total {
			t.Errorf("pid %d event %q [%d, +%d] leaves the root's [0, %d]",
				ev.Pid, ev.Name, ev.Ts, ev.Dur, total)
		}
	}
	for i, a := range top {
		if want := countSpans(a.Root); slices[i+1] != want {
			t.Errorf("pid %d has %d complete events, want %d (one per span node)", i+1, slices[i+1], want)
		}
	}
	for _, c := range []telemetry.SpanCause{telemetry.CauseFetch, telemetry.CauseWalk, telemetry.CauseDataDRAM} {
		if !causes[c] {
			t.Errorf("trace has no %s slices", c)
		}
	}
}

func countSpans(sp telemetry.Span) int {
	n := 1
	for _, ch := range sp.Children {
		n += countSpans(ch)
	}
	return n
}

// TestResultsIdenticalWithSpans is the zero-cost contract's other half:
// attaching a recorder must not perturb the simulation — Results (minus the
// Tail block itself) are byte-identical with and without spans.
func TestResultsIdenticalWithSpans(t *testing.T) {
	plain := spanRun(t, nil)
	spanned := spanRun(t, telemetry.NewSpanRecorder(64, 8))
	if spanned.Tail == nil {
		t.Fatal("spanned run has no Tail")
	}
	spanned.Tail = nil
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(spanned)
	if string(a) != string(b) {
		t.Errorf("Results differ with spans attached:\n%s\n%s", a, b)
	}
}
