package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pathprof/internal/merge"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/profstore"
	"pathprof/internal/workload"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{200, 95, true}, {199, 95, false}, {100, 90, true}, {99, 90, false}, {20, 50, true}, {19, 50, false},
	} {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, p%.0f) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 95}, {200, 95}, {199, 94}, {100, 90}, {40, 75}, {19, 50}, {0, 50}} {
		if got := tail(c.n); got != c.want {
			t.Errorf("tail(%d) = p%.0f, want p%.0f", c.n, got, c.want)
		}
	}
	var l latencies
	for i := 1; i <= 100; i++ {
		l.ms = append(l.ms, float64(i))
	}
	s := l.summary()
	if s.TailPct != 90 || s.N != 100 || math.Abs(s.P50-50.5) > 1e-9 {
		t.Errorf("summary of 1..100 = %+v, want p50 50.5 and the tail at p90", s)
	}
	beyond := 0
	for _, x := range l.ms {
		if x > s.Tail {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Errorf("%d samples beyond the reported p%.0f, want >= %d", beyond, s.TailPct, minBeyond)
	}
}

// spansOf builds spans in one op from (name, start, end, parent) rows.
func spansOf(rows ...[4]any) []span {
	var out []span
	for _, r := range rows {
		out = append(out, span{Name: r[0].(string), Start: int64(r[1].(int)), End: int64(r[2].(int)), Parent: r[3].(int)})
	}
	return out
}

func TestSelfTimeSequential(t *testing.T) {
	spans := spansOf(
		[4]any{"op", 0, 100, -1},
		[4]any{"a", 10, 40, 0},
		[4]any{"a1", 20, 30, 1},
		[4]any{"b", 50, 90, 0},
	)
	if got, want := selfNs(spans), []int64{30, 20, 10, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfNs = %v, want %v", got, want)
	}
	attr := attributedNs(spans)
	for i, want := range []float64{30, 20, 10, 40} {
		if math.Abs(attr[i]-want) > 1e-9 {
			t.Errorf("attributed[%s] = %v, want %v", spans[i].Name, attr[i], want)
		}
	}
}

func TestSelfTimeConcurrent(t *testing.T) {
	// Two children overlap on [20, 60): each gets half of the overlap, and
	// the attributions still sum to the op's duration.
	spans := spansOf(
		[4]any{"op", 0, 100, -1},
		[4]any{"a", 0, 60, 0},
		[4]any{"b", 20, 80, 0},
	)
	if got, want := selfNs(spans), []int64{20, 60, 60}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfNs = %v, want %v", got, want)
	}
	attr := attributedNs(spans)
	total := 0.0
	for i, want := range []float64{20, 40, 40} {
		total += attr[i]
		if math.Abs(attr[i]-want) > 1e-9 {
			t.Errorf("attributed[%s] = %v, want %v", spans[i].Name, attr[i], want)
		}
	}
	if total != 100 {
		t.Errorf("attributions sum to %v, want the op's 100", total)
	}
	layers := byLayer(spans)
	if got := meanSelfMs(layers, "a"); got != 60/1e6 {
		t.Errorf("meanSelfMs(a) = %v", got)
	}
	if meanSelfMs(layers, "absent") != 0 {
		t.Error("a layer without calls must report 0")
	}
}

func testBenches(t *testing.T) []benchMeta {
	t.Helper()
	bs, err := benches()
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 9 {
		t.Fatalf("%d benchmarks, want 9", len(bs))
	}
	return bs
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	bs := testBenches(t)
	sweep := func(seed int64) []sweepOp {
		g := newSweepGen(seed, bs)
		var ops []sweepOp
		for i := 0; i < 30; i++ {
			ops = append(ops, g.next())
		}
		return ops
	}
	if !reflect.DeepEqual(sweep(7), sweep(7)) {
		t.Error("sweep ops differ for one seed")
	}
	if reflect.DeepEqual(sweep(7), sweep(8)) {
		t.Error("sweep ops equal for two seeds")
	}
	a := sweep(7)
	for i := range a[:9] {
		if a[i].Bench != a[i+9].Bench {
			t.Errorf("sweep cycle breaks at op %d: %s then %s", i, a[i].Bench, a[i+9].Bench)
		}
	}

	prof := func(seed int64) []profOp {
		r := rand.New(rand.NewSource(seed))
		return append(profCycle(r, bs), profCycle(r, bs)...)
	}
	if !reflect.DeepEqual(prof(3), prof(3)) {
		t.Error("profile-run ops differ for one seed")
	}
	if reflect.DeepEqual(prof(3), prof(4)) {
		t.Error("profile-run ops equal for two seeds")
	}
	if got, want := cells(prof(3)[:54]), cells(prof(4)[:54]); !reflect.DeepEqual(got, want) || len(got) != 54 {
		t.Errorf("a profile-run cycle must hold every cell once, whatever the seed (%d cells)", len(got))
	}

	fleet := func(seed int64) []fleetOp { return fleetSchedule(seed, bs, fleetRate, 30) }
	if !reflect.DeepEqual(fleet(5), fleet(5)) {
		t.Error("fleet schedule differs for one seed")
	}
	if reflect.DeepEqual(fleet(5), fleet(6)) {
		t.Error("fleet schedule equal for two seeds")
	}
	f5, f6 := fleet(5), fleet(6)
	if len(f5) != len(f6) || float64(len(f5)) < fleetRate*30 {
		t.Errorf("fleet schedules hold %d and %d ops, want equal and covering the window", len(f5), len(f6))
	}
	if got, want := mix(f5), mix(f6); !reflect.DeepEqual(got, want) {
		t.Errorf("fleet mix differs between seeds:\n%v\n%v", got, want)
	}
}

func cells(ops []profOp) []string {
	var out []string
	for _, op := range ops {
		out = append(out, op.Bench+"|"+strconv.Itoa(op.K)+"|"+strconv.Itoa(op.Iters))
	}
	sort.Strings(out)
	return out
}

// mix is the multiset of (kind, program, degree, width, shards) a schedule
// offers.
func mix(ops []fleetOp) map[string]int {
	out := map[string]int{}
	for _, op := range ops {
		key := fmt.Sprintf("write %s/%d k=%d iters=%d x%d", op.Bench, op.Src, op.K, op.Iters, op.Shards)
		if op.Read {
			key = "read " + op.Bench
		}
		out[key]++
	}
	return out
}

// sweepOutcomeFor runs one real sweep op of a small benchmark.
func sweepOutcomeFor(t *testing.T) *sweepOutcome {
	t.Helper()
	o, _, _, err := sweepUntraced(workload.ByName("134.perl"), pipeline.Shared())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestSweepTracedMatchesUntraced ties the traced sweep, which composes the
// calls experiments.CollectWithOptions makes, to the untraced one that
// calls it: on one benchmark and seed both must produce the same ground
// truth, per-degree counters and overhead reports, and estimates. If
// CollectWithOptions changes what it computes, this fails until
// sweepTraced follows.
func TestSweepTracedMatchesUntraced(t *testing.T) {
	pool := pipeline.Shared()
	bench := func() *workload.Benchmark {
		b := workload.ByName("134.perl")
		b.Seed = 4242
		return b
	}
	plain, _, _, err := sweepUntraced(bench(), pool)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	traced, _, _, _, err := sweepTraced(rec, 0, bench(), pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.all()) == 0 {
		t.Fatal("the traced sweep recorded no spans")
	}
	a, b := plain.br, traced.br
	if a.MaxK != b.MaxK || a.BaseOps != b.BaseOps || !reflect.DeepEqual(a.Tracer.BL, b.Tracer.BL) || !reflect.DeepEqual(a.Tracer.Calls, b.Tracer.Calls) {
		t.Fatal("traced and untraced sweeps disagree on the ground truth")
	}
	serialize := func(c *profile.Counters) []byte {
		var buf bytes.Buffer
		if err := c.Serialize(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for k := -1; k <= a.MaxK; k++ {
		ra, rb := a.At(k), b.At(k)
		if !bytes.Equal(serialize(ra.Counters), serialize(rb.Counters)) {
			t.Errorf("k=%d: counters differ", k)
		}
		if ra.Report != rb.Report {
			t.Errorf("k=%d: overhead reports differ: %+v vs %+v", k, ra.Report, rb.Report)
		}
	}
	if !reflect.DeepEqual(plain.ests, traced.ests) {
		t.Errorf("estimates differ:\n%+v\n%+v", plain.ests, traced.ests)
	}
}

func TestSweepCheckCatchesTampering(t *testing.T) {
	o := sweepOutcomeFor(t)
	if err := checkSweep(o); err != nil {
		t.Fatalf("untampered sweep: %v", err)
	}
	c := o.br.At(0).Counters
	for f, m := range c.BL {
		for id := range m {
			c.BL[f][id]++
			if checkSweep(o) == nil {
				t.Fatal("a tampered OL-0 BL counter passed the check")
			}
			c.BL[f][id]--
			break
		}
	}
	o.ests[1].Definite = o.ests[1].Real + 1
	if checkSweep(o) == nil {
		t.Fatal("Definite > real passed the check")
	}
}

func TestProfileChecksCatchTampering(t *testing.T) {
	bs := testBenches(t)
	pbs, err := setupProfile(bs[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	pb := pbs[bs[0].Name]
	op := profOp{Bench: bs[0].Name, K: bs[0].MaxK, Iters: 4, Seed: 11}
	var out, floorOut bytes.Buffer
	pb.sess.Out = &out
	run, err := pb.profile(op)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := floorRun(pb.floor, op.Seed, &floorOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFloor(run, out.Bytes(), m, floorOut.Bytes()); err != nil {
		t.Fatalf("untampered floor check: %v", err)
	}
	if checkFloor(run, append(out.Bytes(), '!'), m, floorOut.Bytes()) == nil {
		t.Error("differing program output passed the floor check")
	}
	ref, err := treeReference(pb, op)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAgainstTree(run, ref); err != nil {
		t.Fatalf("untampered tree check: %v", err)
	}
	for k := range run.Counters.Loop {
		run.Counters.Loop[k]++
		break
	}
	if checkAgainstTree(run, ref) == nil {
		t.Error("a tampered loop counter passed the tree check")
	}
}

func TestFleetChecksCatchTampering(t *testing.T) {
	o := sweepOutcomeFor(t)
	var snaps []*merge.Snapshot
	for _, k := range []int{1, 1} {
		snaps = append(snaps, merge.New(k, 2, o.br.At(k).Counters))
	}
	want, err := merge.MergeAll(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	if err := want.Encode(&served); err != nil {
		t.Fatal(err)
	}
	if err := checkCell(snaps, served.Bytes()); err != nil {
		t.Fatalf("untampered cell: %v", err)
	}
	tampered := append([]byte(nil), served.Bytes()...)
	tampered[len(tampered)-3]++
	if checkCell(snaps, tampered) == nil {
		t.Error("a tampered fleet byte passed the cell check")
	}

	dir := t.TempDir()
	st, err := profstore.Open(dir+"/data", profstore.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range snaps {
		if err := st.Append("134.perl", s); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	key := profstore.CellKey{Bench: "134.perl", K: 1, Iters: 2}
	e := &env{summary: &strings.Builder{}}
	res := newResult()
	if _, _, err := checkReplay(e, res, dir+"/data", map[profstore.CellKey][]byte{key: served.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("untampered replay failed: %s", e.summary)
	}
	if _, _, err := checkReplay(e, res, dir+"/data", map[profstore.CellKey][]byte{key: tampered}); err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Error("a replayed cell that differs from the served bytes passed")
	}
}

func TestFailuresReachTheResultLine(t *testing.T) {
	res := newResult()
	res.Attempted = 3
	res.fail(&env{summary: &strings.Builder{}}, "wrong")
	for _, s := range endToEnd {
		res.Metrics[s.Name] = 1
	}
	line, err := render(res, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != 1 || out.Attempted != 3 {
		t.Errorf("result line %s: want correct=false, failed=1 of 3", line)
	}
	delete(res.Metrics, endToEnd[0].Name)
	if _, err := render(res, endToEnd); err == nil {
		t.Error("a missing metric rendered")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names and units
// identical to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics printed, %d declared", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: printed %v, declared %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
}
