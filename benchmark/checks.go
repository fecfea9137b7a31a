package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"cosmos/internal/sim"
)

// digests.json holds, for the default seed, the SHA-256 of every simulated
// sim.Results the benchmark produces (the eval-matrix cells, both single
// simulations and the NP/MorphCtr/COSMOS cells their traced runs put through
// the runner), recorded with -record-digests.
//
//go:embed digests.json
var digestFile []byte

type digestSet struct {
	Seed  uint64            `json:"seed"`
	Cells map[string]string `json:"cells"`
}

// checker counts the simulations a run attempted and the ones whose output
// was wrong: an error, a digest mismatch at the default seed, a broken
// invariant at any other seed, or a result that differs from the same
// simulation run another way.
type checker struct {
	want      map[string]string // nil when the seed has no recorded digests
	got       map[string]string
	attempted int
	failed    int
	problems  []string
}

func newChecker(seed uint64) (*checker, error) {
	c := &checker{got: map[string]string{}}
	if seed != defaultSeed {
		return c, nil
	}
	var ds digestSet
	if err := json.Unmarshal(digestFile, &ds); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if ds.Seed != defaultSeed || len(ds.Cells) == 0 {
		return nil, fmt.Errorf("digests.json: no digests for seed %d", defaultSeed)
	}
	c.want = ds.Cells
	return c, nil
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// check grades one simulation's output: key names it in digests.json,
// accesses is the length the simulation was asked for.
func (c *checker) check(key string, r sim.Results, accesses uint64, err error) {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", key, err)
		return
	}
	if msg := invariants(r, accesses); msg != "" {
		c.fail("%s: %s", key, msg)
		return
	}
	d, err := digest(r)
	if err != nil {
		c.fail("%s: %v", key, err)
		return
	}
	c.got[key] = d
	if c.want == nil {
		return
	}
	if want, ok := c.want[key]; !ok {
		c.fail("%s: no recorded digest", key)
	} else if want != d {
		c.fail("%s: results digest %s, recorded %s", key, d[:12], want[:12])
	}
}

// same grades a repeat of a simulation already checked (an epoch-timed or
// traced run of the same seed) against the reference result.
func (c *checker) same(key string, r, ref sim.Results, err error) {
	c.attempted++
	switch {
	case err != nil:
		c.fail("%s: %v", key, err)
	case !reflect.DeepEqual(r, ref):
		c.fail("%s: results differ from the plain one-shot run", key)
	}
}

// invariants checks what must hold for any seed.
func invariants(r sim.Results, accesses uint64) string {
	t := r.Traffic
	classes := t.DataRead + t.DataWrite + t.CtrRead + t.CtrWrite + t.MTRead +
		t.MACRead + t.MACWrite + t.ReEncWrite + t.WastedDataFetch
	switch {
	case r.Accesses != accesses:
		return fmt.Sprintf("simulated %d accesses, asked for %d", r.Accesses, accesses)
	case r.Reads+r.Writes != r.Accesses:
		return fmt.Sprintf("reads %d + writes %d != accesses %d", r.Reads, r.Writes, r.Accesses)
	case t.Total() != classes:
		return fmt.Sprintf("traffic total %d != sum of classes %d", t.Total(), classes)
	}
	return ""
}

func digest(r sim.Results) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("encode results: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// recordDigests runs every workload once at the default seed and writes the
// digests of all their results.
func recordDigests(ctx context.Context, path string) error {
	c := &checker{got: map[string]string{}}
	if _, err := runCampaign(ctx, evalMatrix(defaultSeed), c, nil, nil); err != nil {
		return err
	}
	for _, w := range workloadNames[1:] {
		cl, err := singleCell(w, defaultSeed)
		if err != nil {
			return err
		}
		r, _, err := cl.oneShot(ctx)
		c.check(cl.label, r, cl.accesses, err)
		if _, err := runCampaign(ctx, designTriple(cl), c, nil, nil); err != nil {
			return err
		}
	}
	if c.failed > 0 {
		return fmt.Errorf("not recording: %v", c.problems)
	}
	b, err := json.MarshalIndent(digestSet{Seed: defaultSeed, Cells: c.got}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write digests: %w", err)
	}
	fmt.Printf("recorded %d digests for seed %d in %s\n", len(c.got), defaultSeed, path)
	return nil
}
