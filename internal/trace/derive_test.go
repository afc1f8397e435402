package trace

// Error-path coverage for the trace-derived expectation builders: the happy
// paths are exercised end-to-end by the oracle battery and the e2e sweep,
// but the failure branches — a caller path that never reaches the call
// site, an unresolvable path id, a callee path that does not start at entry,
// a block without call-site info — only fire on corrupted adjacency data,
// so they are driven here by tampering with a healthy tracer.

import (
	"fmt"
	"strings"
	"testing"

	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/interp"
	"pathprof/internal/profile"
)

// tracedCallProgram runs a program whose call site sits behind a branch (so
// caller paths avoiding the site exist) and whose callee contains a loop
// (so callee paths not starting at entry exist).
func tracedCallProgram(t *testing.T) (*profile.Info, *Tracer) {
	t.Helper()
	info, tr, _ := runTraced(t, `
		func f(x) {
			var i = 0;
			while (i < 2) { i = i + 1; }
			return x + 1;
		}
		func main() {
			var a = 0;
			for (var i = 0; i < 4; i = i + 1) {
				if (i % 2 == 0) { a = a + f(i); }
			}
			print(a);
		}
	`, 1, false)
	return info, tr
}

func funcByName(t *testing.T, info *profile.Info, name string) *profile.FuncInfo {
	t.Helper()
	for _, fi := range info.Funcs {
		if fi.Fn.Name == name {
			return fi
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

// pathAvoiding returns a BL path of fi that never visits block.
func pathAvoiding(t *testing.T, fi *profile.FuncInfo, block cfg.NodeID) *bl.Path {
	t.Helper()
	paths, err := fi.DAG.EnumeratePaths(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		visits := false
		for _, b := range p.Blocks {
			if b == block {
				visits = true
				break
			}
		}
		if !visits {
			return p
		}
	}
	t.Fatal("every path visits the block; test program no longer branches around the call")
	return nil
}

func TestSuffixBlocks(t *testing.T) {
	info, _ := tracedCallProgram(t)
	main := funcByName(t, info, "main")
	if len(main.CallSites) != 1 {
		t.Fatalf("main has %d call sites, want 1", len(main.CallSites))
	}
	cs := main.CallSites[0]
	paths, err := main.DAG.EnumeratePaths(1 << 20)
	if err != nil {
		t.Fatal(err)
	}

	// Happy path: a path through the site yields the suffix from the site.
	var visited bool
	for _, p := range paths {
		for i, b := range p.Blocks {
			if b == cs.Block {
				sfx, err := SuffixBlocks(main, p, cs.Block)
				if err != nil {
					t.Fatalf("SuffixBlocks on visiting path %d: %v", p.ID, err)
				}
				if len(sfx) != len(p.Blocks)-i || sfx[0] != cs.Block {
					t.Fatalf("suffix of path %d = %v; want tail from block %d", p.ID, sfx, cs.Block)
				}
				visited = true
				break
			}
		}
	}
	if !visited {
		t.Fatal("no enumerated path visits the call site")
	}

	// Error path: a path avoiding the site must be rejected by name.
	avoid := pathAvoiding(t, main, cs.Block)
	if _, err := SuffixBlocks(main, avoid, cs.Block); err == nil {
		t.Fatal("SuffixBlocks accepted a path that never reaches the site")
	} else if !strings.Contains(err.Error(), "does not visit call site") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestExpectedTypeIIRejectsPathNotReachingSite(t *testing.T) {
	info, tr := tracedCallProgram(t)
	main := funcByName(t, info, "main")
	cs := main.CallSites[0]
	if len(tr.T2) == 0 {
		t.Fatal("traced program produced no Type II crossings")
	}
	// Clone a real adjacency but point its caller path at one that avoids
	// the site: derivation must fail rather than fabricate a counter.
	avoid := pathAvoiding(t, main, cs.Block)
	for adj := range tr.T2 {
		bad := adj
		bad.CallerPath = avoid.ID
		tr.T2[bad] = 1
		break
	}
	if _, err := tr.ExpectedTypeII(0); err == nil {
		t.Fatal("ExpectedTypeII accepted a caller path that never reaches the site")
	} else if !strings.Contains(err.Error(), "does not visit call site") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestExpectedTypeIIRejectsUnknownPathID(t *testing.T) {
	_, tr := tracedCallProgram(t)
	if len(tr.T2) == 0 {
		t.Fatal("traced program produced no Type II crossings")
	}
	for adj := range tr.T2 {
		bad := adj
		bad.CallerPath = 1 << 40 // no such BL path id
		tr.T2[bad] = 1
		break
	}
	if _, err := tr.ExpectedTypeII(0); err == nil {
		t.Fatal("ExpectedTypeII accepted an unresolvable caller path id")
	}
	if tr.Err == nil {
		t.Fatal("tracer error not recorded for unresolvable path id")
	}
}

func TestExpectedTypeIRejectsNonEntryPath(t *testing.T) {
	info, tr := tracedCallProgram(t)
	f := funcByName(t, info, "f")
	if len(tr.T1) == 0 {
		t.Fatal("traced program produced no Type I crossings")
	}
	// Find a callee path that begins after a backedge (mid-loop): it can
	// never be a frame's first completed path.
	paths, err := f.DAG.EnumeratePaths(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var nonEntry *bl.Path
	for _, p := range paths {
		if _, afterBack := p.StartHeader(); afterBack {
			nonEntry = p
			break
		}
	}
	if nonEntry == nil {
		t.Fatal("callee has no post-backedge paths; test program lost its loop")
	}
	for adj := range tr.T1 {
		bad := adj
		bad.Q = nonEntry.ID
		tr.T1[bad] = 1
		break
	}
	if _, err := tr.ExpectedTypeI(0); err == nil {
		t.Fatal("ExpectedTypeI accepted a callee path that does not start at entry")
	} else if !strings.Contains(err.Error(), "does not start at entry") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestTracerRejectsCallFromNonCallSiteBlock(t *testing.T) {
	info, _ := tracedCallProgram(t)
	main := funcByName(t, info, "main")
	f := funcByName(t, info, "f")

	// Drive the listener hooks directly with a call event from a block
	// that has no call-site info: the tracer must record errNoSite, not
	// crash or silently count.
	m := interp.New(info.Prog, 1)
	tr := NewTracer(info, m)
	callerFr := &interp.Frame{Fn: main.Fn, Data: make([]any, 1)}
	calleeFr := &interp.Frame{Fn: f.Fn, Data: make([]any, 1)}
	tr.OnEnter(callerFr)
	tr.OnCall(callerFr, int(main.G.Entry()), calleeFr) // entry block is never a call site
	if tr.Err == nil {
		t.Fatal("call from a non-call-site block went unreported")
	}
	msg := tr.Err.Error()
	entry := main.G.Entry()
	for _, want := range []string{"no call-site info", fmt.Sprintf("block %d (%s)", entry, main.G.Label(entry)), main.Fn.Name} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not name %q", msg, want)
		}
	}
}
