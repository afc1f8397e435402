package trace

import (
	"reflect"
	"strings"
	"testing"

	"pathprof/internal/bl"
	"pathprof/internal/interp"
	"pathprof/internal/lang"
	"pathprof/internal/profile"
	"pathprof/internal/randprog"
	"pathprof/internal/workload"
)

// memoClearer forgets every memoized loop occurrence after each edge, so the
// tracer it rides along with analyzes every crossing afresh.
type memoClearer struct {
	interp.BaseListener
	tr *Tracer
}

func (c *memoClearer) OnEdge(*interp.Frame, int, int) {
	for _, loops := range c.tr.occCache {
		for _, memo := range loops {
			clear(memo)
		}
	}
}

// traceProgram runs info's program under a tracer at interpreter seed
// seed, with the occurrence memo cleared after every edge when fresh is set.
func traceProgram(t *testing.T, info *profile.Info, seed uint64, fresh bool) *Tracer {
	t.Helper()
	m := interp.New(info.Prog, seed)
	m.MaxSteps = randprog.MaxRunSteps
	tr := NewTracer(info, m)
	if fresh {
		m.AddListener(&memoClearer{tr: tr})
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.Err != nil {
		t.Fatalf("tracer: %v", tr.Err)
	}
	return tr
}

// directLoopPairs is LoopPairs computed without the tracer's caches:
// bl.AnalyzeLoop on freshly reconstructed paths for every LoopAdj entry.
func directLoopPairs(t *testing.T, tr *Tracer) map[LoopPairKey]uint64 {
	t.Helper()
	out := map[LoopPairKey]uint64{}
	for adj, n := range tr.LoopAdj {
		fi := tr.Info.Funcs[adj.Func]
		lp := fi.Loops[adj.Loop].LP
		var seq [2]int
		for i, id := range []int64{adj.A, adj.B} {
			p, err := fi.DAG.PathForID(id)
			if err != nil {
				t.Fatal(err)
			}
			occ, ok := bl.AnalyzeLoop(p, lp, fi.DAG)
			if !ok || !occ.Full || occ.SeqIndex < 0 {
				seq[i] = -1
				continue
			}
			seq[i] = occ.SeqIndex
		}
		if seq[0] >= 0 && seq[1] >= 0 {
			out[LoopPairKey{adj.Func, adj.Loop, seq[0], seq[1]}] += n
		}
	}
	return out
}

// TestOccurrenceMemoMatchesDirectAnalysis checks that memoizing loop
// occurrences per static path changes no result: on every bundled benchmark
// and a corpus of generated programs, the tracer's Table 1 tallies equal
// those of a run that analyzes every crossing afresh, and LoopPairs equals
// a direct bl.AnalyzeLoop pass over the recorded adjacencies.
func TestOccurrenceMemoMatchesDirectAnalysis(t *testing.T) {
	type program struct {
		name string
		src  string
		seed uint64
	}
	var progs []program
	for _, wb := range workload.All() {
		progs = append(progs, program{wb.Name, wb.Source, wb.Seed})
	}
	seeds, err := randprog.HarvestCorpus(10, randprog.MaxOracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		progs = append(progs, program{"randprog", randprog.SeedSource(s.GenSeed), uint64(s.GenSeed)})
	}
	loopy := 0
	for _, pr := range progs {
		prog, err := lang.Compile(pr.src)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		info, err := profile.Analyze(prog, profile.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		memo := traceProgram(t, info, pr.seed, false)
		fresh := traceProgram(t, info, pr.seed, true)
		if memo.Attr != fresh.Attr {
			t.Errorf("%s seed %d: memoized Attr %+v != fresh %+v", pr.name, pr.seed, memo.Attr, fresh.Attr)
		}
		if !reflect.DeepEqual(memo.LoopAdj, fresh.LoopAdj) {
			t.Errorf("%s seed %d: LoopAdj differs between memoized and fresh runs", pr.name, pr.seed)
		}
		got, err := memo.LoopPairs()
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		if want := directLoopPairs(t, memo); !reflect.DeepEqual(got, want) {
			t.Errorf("%s seed %d: LoopPairs %v != direct analysis %v", pr.name, pr.seed, got, want)
		}
		if len(got) > 0 {
			loopy++
		}
	}
	if loopy < len(workload.All()) {
		t.Fatalf("only %d of %d programs formed loop pairs; the comparison lost its subject", loopy, len(progs))
	}
}

func TestOccurrenceMemoHitAllocatesNothing(t *testing.T) {
	info, tr, _ := runTraced(t, `
		func main() {
			var i = 0;
			while (i < 4) { i = i + 1; }
		}
	`, 1, false)
	if len(tr.LoopAdj) == 0 {
		t.Fatal("traced program recorded no loop adjacency")
	}
	var adj LoopAdjKey
	for adj = range tr.LoopAdj {
		break
	}
	fi := info.Funcs[adj.Func]
	li := fi.Loops[adj.Loop]
	if _, ok := tr.occurrence(fi, li, adj.A); !ok {
		t.Fatal(tr.Err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if o, ok := tr.occurrence(fi, li, adj.A); !ok || !o.complete() {
			t.Fatal("memoized occurrence lost its full iteration")
		}
	})
	if allocs != 0 {
		t.Fatalf("memo hit allocates %.1f times; want 0", allocs)
	}
}

func TestErrNoLoopNamesBackedgeAndFunction(t *testing.T) {
	info, _ := tracedCallProgram(t)
	f := funcByName(t, info, "f")
	if len(f.Loops) == 0 {
		t.Fatal("callee lost its loop")
	}
	be := f.Loops[0].Loop.Backedges[0]
	msg := errNoLoop(f, be).Error()
	for _, want := range []string{f.G.Label(be.From) + "->" + f.G.Label(be.To), f.Fn.Name} {
		if !strings.Contains(msg, want) {
			t.Errorf("errNoLoop = %q; want it to name %q", msg, want)
		}
	}
}
