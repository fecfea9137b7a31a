package sim

import (
	"reflect"
	"testing"

	"cosmos/internal/fault"
	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
	"cosmos/internal/trace"
)

// engineGen builds the shared workload for the engine-equivalence tests: a
// four-thread interleave of mixed access patterns with enough writes that
// dirty writebacks escape the private levels and cross into the shared
// tail.
func engineGen() trace.Generator {
	r := memsys.Region{Base: 1 << 28, Size: 64 << 20, Elem: 1}
	return trace.NewInterleave("mix", []trace.Generator{
		trace.NewUniform(r, 40, 11, 1),
		trace.NewZipf(r, 1<<16, 0.9, 7, 2),
		trace.NewSequential(r, 3, 3),
		trace.NewPointerChase(r, 1<<14, 5, 4),
	}, 17)
}

// engineConfig is the engine-equivalence machine: small private caches force
// writeback traffic.
func engineConfig() Config {
	cfg := testConfig()
	cfg.L1Bytes = 16 << 10
	cfg.L2Bytes = 128 << 10
	cfg.LLCBytes = 512 << 10
	return cfg
}

// engineRun executes one run of engineGen on cfg. scalar selects the raw
// loop (gen.Next + Step, no block decoding); otherwise the block-decoded
// RunContext loop runs. It returns the Results and the ordered fault
// violation log.
func engineRun(cfg Config, design secmem.Design, scalar bool, accesses uint64) (Results, []fault.Event) {
	s := New(cfg, design)
	var events []fault.Event
	if in := s.Faults(); in != nil {
		in.Notify = func(ev fault.Event) { events = append(events, ev) }
	}
	gen := trace.Limit(engineGen(), accesses)
	if !scalar {
		return s.Run(gen, accesses), events
	}
	for {
		a, ok := gen.Next()
		if !ok {
			break
		}
		s.Step(a)
	}
	return s.Results(gen.Name()), events
}

// TestEngineEquivalence pins block decoding as pure batching: for every
// design point, and for a hierarchy with no shared on-chip level (every
// private writeback drains straight into the secure-memory terminal), the
// scalar loop and RunContext produce DeepEqual-identical Results.
func TestEngineEquivalence(t *testing.T) {
	const accesses = 40_000
	type engineCase struct {
		name   string
		cfg    Config
		design secmem.Design
	}
	var cases []engineCase
	for _, d := range secmem.AllDesigns() {
		cases = append(cases, engineCase{d.Name, engineConfig(), d})
	}
	allPrivate := testConfig()
	allPrivate.Levels = []LevelSpec{
		{Name: "l1", Bytes: 16 << 10, Ways: 2, Lat: 2},
		{Name: "l2", Bytes: 64 << 10, Ways: 4, Lat: 20},
	}
	cases = append(cases, engineCase{"AllPrivate", allPrivate, secmem.DesignCosmos()})

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, _ := engineRun(tc.cfg, tc.design, true, accesses)
			if want.Accesses != accesses {
				t.Fatalf("scalar loop ran %d accesses, want %d", want.Accesses, accesses)
			}
			if got, _ := engineRun(tc.cfg, tc.design, false, accesses); !reflect.DeepEqual(want, got) {
				t.Fatalf("RunContext diverged from scalar:\nscalar %+v\nblock  %+v", want, got)
			}
		})
	}
}

// TestEngineEquivalenceUnderFaults extends the property to fault campaigns:
// with a nonzero fault seed the Results, the fault report and the full
// ordered violation log must be identical — fault draws are a pure function
// of the global access index, which both loops replay in the same order. A
// crash point lands mid-block, so recovery is exercised inside RunContext.
func TestEngineEquivalenceUnderFaults(t *testing.T) {
	const accesses = 40_000
	cfg := engineConfig()
	cfg.Fault = &fault.Config{Seed: 13, Rate: 2e-4, CrashAt: 17_777}
	for _, d := range []secmem.Design{secmem.DesignCosmos(), secmem.DesignMorph()} {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			want, wantEv := engineRun(cfg, d, true, accesses)
			if want.Fault == nil || want.Fault.Injected == 0 {
				t.Fatalf("campaign injected nothing: %+v", want.Fault)
			}
			got, gotEv := engineRun(cfg, d, false, accesses)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("RunContext diverged under faults:\nscalar %+v\nblock  %+v", want, got)
			}
			if !reflect.DeepEqual(wantEv, gotEv) {
				t.Fatalf("violation log diverged: %d vs %d events", len(wantEv), len(gotEv))
			}
		})
	}
}
