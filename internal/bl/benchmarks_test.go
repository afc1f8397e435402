package bl_test

import (
	"testing"

	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/profile"
	"pathprof/internal/workload"
)

// maxWalkedPaths bounds the paths enumerated per function; every function
// of the bundled benchmarks is far below it.
const maxWalkedPaths = 1 << 16

// TestWalkerRecoversEveryBenchmarkPath drives each BL path of every function
// of the bundled benchmarks through a Walker and checks the completed
// instance carries the path's own id. A path that starts at a loop header is
// reached by first walking an entry-started path that ends at one of the
// header's backedges, and taking that backedge.
func TestWalkerRecoversEveryBenchmarkPath(t *testing.T) {
	walked := 0
	for _, wb := range workload.All() {
		prog, err := wb.Compile()
		if err != nil {
			t.Fatal(err)
		}
		info, err := profile.Analyze(prog, profile.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range info.Funcs {
			d := fi.DAG
			paths, err := d.EnumeratePaths(maxWalkedPaths)
			if err != nil {
				t.Fatalf("%s/%s: %v", wb.Name, fi.Fn.Name, err)
			}
			// leadIn[h] is an entry-started path ending at a backedge into h.
			leadIn := map[cfg.NodeID]*bl.Path{}
			for _, p := range paths {
				_, afterBack := p.StartHeader()
				if be, ok := p.EndBackedge(); ok && !afterBack && leadIn[be.To] == nil {
					leadIn[be.To] = p
				}
			}
			for _, p := range paths {
				if got := walkPath(t, d, p, leadIn); got != p.ID {
					t.Fatalf("%s/%s: walking path %d (%s) yields id %d",
						wb.Name, fi.Fn.Name, p.ID, p.Format(d.G), got)
				}
				walked++
			}
		}
	}
	if walked == 0 {
		t.Fatal("no paths walked")
	}
	t.Logf("walked %d paths", walked)
}

// walkPath steps a fresh walker along p and returns the id of the instance
// that completes it.
func walkPath(t *testing.T, d *bl.DAG, p *bl.Path, leadIn map[cfg.NodeID]*bl.Path) int64 {
	t.Helper()
	w := bl.NewWalker(d)
	step := func(v cfg.NodeID) *bl.Instance {
		inst, err := w.Step(v)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	// Blocks[0] is where the walker already stands: the entry, or the
	// header the lead-in's backedge lands on.
	if h, ok := p.StartHeader(); ok {
		lead := leadIn[h]
		if lead == nil {
			t.Fatalf("no entry-started path reaches a backedge into %s", d.G.Label(h))
		}
		for _, v := range lead.Blocks[1:] {
			step(v)
		}
		if inst := step(h); inst == nil || inst.PathID != lead.ID {
			t.Fatalf("lead-in backedge into %s completed %v; want path %d", d.G.Label(h), inst, lead.ID)
		}
	}
	for _, v := range p.Blocks[1:] {
		if inst := step(v); inst != nil {
			t.Fatalf("path %d completed early at %s", p.ID, d.G.Label(v))
		}
	}
	if be, ok := p.EndBackedge(); ok {
		inst := step(be.To)
		if inst == nil {
			t.Fatalf("backedge %v of path %d completed nothing", be, p.ID)
		}
		return inst.PathID
	}
	inst, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return inst.PathID
}
