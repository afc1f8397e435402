package main

import (
	"strings"
	"testing"

	"pathprof/internal/experiments"
)

func cell(name, engine, store string, iters int, ns float64) experiments.BenchResult {
	return experiments.BenchResult{
		Name: name, Bench: "300.twolf", Engine: engine, Store: store,
		Iters: iters, NsPerOp: ns,
	}
}

func grid(scale float64) []experiments.BenchResult {
	return []experiments.BenchResult{
		cell("run", "tree", "nested", 2, 24e6*scale),
		cell("run", "regvm", "nested", 2, 3e6*scale),
		cell("run", "regvm", "arena", 2, 2.4e6*scale),
		cell("steady", "regvm", "arena", 2, 2.4e6*scale),
		cell("sweep", "tree", "flat", 0, 250e6*scale),
	}
}

func TestGatePassesIdenticalAndRescaled(t *testing.T) {
	base := grid(1)
	// A 3x slower box rescales every cell uniformly: the ratios to the
	// reference cell are unchanged and the gate must stay green.
	for _, cur := range [][]experiments.BenchResult{grid(1), grid(3)} {
		if got := Gate(base, cur, 0.20); len(got) != 0 {
			t.Fatalf("gate complained on an unregressed grid:\n%s", strings.Join(got, "\n"))
		}
	}
}

func TestGateCatchesRelativeRegression(t *testing.T) {
	base := grid(1)
	cur := grid(1)
	cur[2].NsPerOp *= 1.5 // regvm/arena run: +50% while the reference holds
	got := Gate(base, cur, 0.20)
	if len(got) != 1 || !strings.Contains(got[0], "regvm/arena/iters=2 regressed") {
		t.Fatalf("regressed cell not caught: %v", got)
	}
}

func TestGateToleratesWithinThreshold(t *testing.T) {
	base := grid(1)
	cur := grid(1)
	cur[2].NsPerOp *= 1.15 // +15% is inside the 20% gate
	if got := Gate(base, cur, 0.20); len(got) != 0 {
		t.Fatalf("gate complained inside the threshold: %v", got)
	}
}

func TestGateIgnoresNonRunCells(t *testing.T) {
	base := grid(1)
	cur := grid(1)
	cur[4].NsPerOp *= 10 // sweep cells are informational, not gated
	if got := Gate(base, cur, 0.20); len(got) != 0 {
		t.Fatalf("gate complained on a non-run cell: %v", got)
	}
}

func TestGateCatchesVanishedCell(t *testing.T) {
	base := grid(1)
	cur := grid(1)[:2] // regvm run cell gone
	got := Gate(base, cur, 0.20)
	if len(got) != 1 || !strings.Contains(got[0], "regvm/arena/iters=2 disappeared") {
		t.Fatalf("vanished cell not caught: %v", got)
	}
}

func TestGateRequiresReferenceCell(t *testing.T) {
	base := grid(1)
	if got := Gate(base[1:], grid(1), 0.20); len(got) != 1 || !strings.Contains(got[0], "baseline has no") {
		t.Fatalf("missing baseline reference not caught: %v", got)
	}
	if got := Gate(base, grid(1)[1:], 0.20); len(got) != 1 || !strings.Contains(got[0], "current has no") {
		t.Fatalf("missing current reference not caught: %v", got)
	}
}

func TestGatePGO(t *testing.T) {
	g := grid(1)
	g = append(g, cell("run-pgo", "pgo", "arena", 2, 2.3e6))
	if got := GatePGO(g, 0.20); len(got) != 0 {
		t.Fatalf("pgo gate complained on a faster-than-sibling cell: %v", got)
	}

	slow := append(grid(1), cell("run-pgo", "pgo", "arena", 2, 2.4e6*1.5))
	got := GatePGO(slow, 0.20)
	if len(got) != 1 || !strings.Contains(got[0], "regressed vs its regvm sibling") {
		t.Fatalf("regressed pgo cell not caught: %v", got)
	}

	within := append(grid(1), cell("run-pgo", "pgo", "arena", 2, 2.4e6*1.15))
	if got := GatePGO(within, 0.20); len(got) != 0 {
		t.Fatalf("pgo gate complained inside the threshold: %v", got)
	}

	orphan := append(grid(1), cell("run-pgo", "pgo", "flat", 2, 1))
	got = GatePGO(orphan, 0.20)
	if len(got) != 1 || !strings.Contains(got[0], "no regvm run sibling") {
		t.Fatalf("orphan pgo cell not caught: %v", got)
	}
}

// TestCommittedGridGatesItself pins the committed BENCH_pipeline.json: it
// must contain the reference cell and pass both its own gate and the
// within-file PGO gate, so the CI check can never be red on an untouched
// tree.
func TestCommittedGridGatesItself(t *testing.T) {
	rs, err := load("../../../BENCH_pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := Gate(rs, rs, 0.20); len(got) != 0 {
		t.Fatalf("committed grid fails its own gate:\n%s", strings.Join(got, "\n"))
	}
	if got := GatePGO(rs, 0.20); len(got) != 0 {
		t.Fatalf("committed grid fails the PGO gate:\n%s", strings.Join(got, "\n"))
	}
	pgo := 0
	for _, r := range rs {
		if r.Name == "run-pgo" {
			pgo++
		}
	}
	if pgo == 0 {
		t.Fatal("committed grid has no run-pgo cells; the self-PGO measurement is missing")
	}
}
