package main

import (
	"fmt"
	"math/rand"
	"sync"

	"pathprof/internal/core"
	"pathprof/internal/workload"
)

// benchMeta is what the generators need to know about one bundled
// benchmark: its name and its largest useful overlap degree.
type benchMeta struct {
	Name string
	MaxK int
}

// third is the paper's operating point: about a third of the maximum
// overlap, and at least 1.
func (b benchMeta) third() int {
	k := (b.MaxK + 2) / 3
	if k < 1 {
		k = 1
	}
	return min(k, b.MaxK)
}

var (
	benchesOnce sync.Once
	benchList   []benchMeta
	benchErr    error
)

// benches returns the nine benchmarks in the paper's table order with
// their maximum degrees (computed once per process).
func benches() ([]benchMeta, error) {
	benchesOnce.Do(func() {
		for _, b := range workload.All() {
			s, err := core.Open(b.Source)
			if err != nil {
				benchErr = fmt.Errorf("%s: %w", b.Name, err)
				return
			}
			benchList = append(benchList, benchMeta{Name: b.Name, MaxK: s.MaxDegree()})
		}
	})
	return benchList, benchErr
}

// interpSeed draws an interpreter seed.
func interpSeed(r *rand.Rand) uint64 { return uint64(r.Int63n(1<<31)) + 1 }

// sweepOp is one sweep: a cold collection of one benchmark at one
// interpreter seed, then estimation at every degree.
type sweepOp struct {
	Bench string
	Seed  uint64
}

// sweepGen cycles through the nine benchmarks in one seeded order, each
// visit with a fresh interpreter seed.
type sweepGen struct {
	r     *rand.Rand
	order []benchMeta
	i     int
}

func newSweepGen(seed int64, bs []benchMeta) *sweepGen {
	r := rand.New(rand.NewSource(seed))
	order := make([]benchMeta, len(bs))
	for i, j := range r.Perm(len(bs)) {
		order[i] = bs[j]
	}
	return &sweepGen{r: r, order: order}
}

func (g *sweepGen) next() sweepOp {
	b := g.order[g.i%len(g.order)]
	g.i++
	return sweepOp{Bench: b.Name, Seed: interpSeed(g.r)}
}

// profOp is one profiled run on a warmed session. K = -1 is a Ball-Larus
// run; Check marks the run for the tree-reference comparison.
type profOp struct {
	Bench string
	K     int
	Iters int
	Seed  uint64
	Check bool
}

// checkEvery is the mean spacing of profiled runs sampled for the
// tree-reference check; maxChecks caps the sample.
const (
	checkEvery = 64
	maxChecks  = 24
)

// profDegrees is the degree axis of profile-run: BL, the paper's operating
// point, and the maximum.
func profDegrees(b benchMeta) []int { return []int{-1, b.third(), b.MaxK} }

// profIters is the window-width axis of profile-run.
var profIters = []int{2, 4}

// profCycle is one cycle of profile-run: every benchmark x degree x width
// cell once, in seeded order, each with a fresh interpreter seed. Whole
// cycles keep the op mix identical across seeds.
func profCycle(r *rand.Rand, bs []benchMeta) []profOp {
	var ops []profOp
	for _, b := range bs {
		for _, k := range profDegrees(b) {
			for _, iters := range profIters {
				ops = append(ops, profOp{Bench: b.Name, K: k, Iters: iters})
			}
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].Seed = interpSeed(r)
		ops[i].Check = r.Intn(checkEvery) == 0
	}
	return ops
}

// Fleet mix parameters. The shares are not taken from a measured
// deployment: the repository holds no record of real daemon traffic. They
// are a sample-size design: each cycle holds one job per benchmark x shard
// count, one read per such job, and a third as many source jobs, so every
// layer the fleet exercises gets samples in every run (see README.md).
const (
	fleetRate          = 40.0 // ops offered per second, reads included
	fleetSrcPerCycle   = 12   // source jobs per cycle
	fleetReadsPerBench = 4    // fleet reads per benchmark per cycle
	fleetSrcPool       = 8    // size of the seeded source-program pool

	// fleetLatencyLimitMs bounds the job tail (client.op_p95_ms); a run
	// above it fails its check. It catches a daemon that no longer keeps
	// up with the offered rate: then the queue grows and the tail reaches
	// seconds, while runs that keep up stay below 100 ms.
	fleetLatencyLimitMs = 250.0
)

var (
	fleetIters  = []int{2, 3, 4}
	fleetShards = []int{1, 2, 4, 8}
)

// fleetOp is one op of the fleet mix: a job submission (Read false) or a
// fleet read of a benchmark's warmed cell (PGO picks the /v1/pgo export
// over the raw snapshot). Src >= 0 selects a source job from the pool.
type fleetOp struct {
	Due    float64 // seconds after the start of the window
	Read   bool
	PGO    bool
	Bench  string
	Src    int
	K      int
	Iters  int
	Shards int
	Seed   uint64
}

// fleetCycle is cycle c of the fleet mix: a job for every benchmark x
// shard count, a fixed number of source jobs, and fleetReadsPerBench reads
// per benchmark, alternating the raw snapshot and the PGO export. The
// order is a fixed interleaving — consecutive jobs differ in shard count
// and benchmark, a read follows every job — rotated by a seeded offset.
// Within a cycle every shard count meets each of the nine degree x width
// combinations once, across the benchmarks, and over nine cycles every
// benchmark x shard count meets all nine. The mix of job sizes in a run is
// therefore the same for every seed; the seed draws the interpreter seeds
// and the rotation.
func fleetCycle(r *rand.Rand, bs []benchMeta, c, rot int) []fleetOp {
	nb, ns := len(bs), len(fleetShards)
	var ops []fleetOp
	reads := 0
	for j := 0; j < nb*ns; j++ {
		si := j % ns
		bi := (j/ns + 7*si + rot) % nb
		b := bs[bi]
		degs := profDegrees(b)
		combo := (c + bi + 2*si) % (len(degs) * len(fleetIters))
		ops = append(ops, fleetOp{Bench: b.Name, Src: -1, K: degs[combo/len(fleetIters)],
			Iters: fleetIters[combo%len(fleetIters)], Shards: fleetShards[si], Seed: interpSeed(r)})
		for ; reads*nb*ns < (j+1)*nb*fleetReadsPerBench; reads++ {
			rb := bs[(reads+rot)%nb]
			ops = append(ops, fleetOp{Read: true, PGO: (reads/nb)%2 == 1, Bench: rb.Name, Src: -1, K: rb.third(), Iters: 2})
		}
		if (j+1)%(nb*ns/fleetSrcPerCycle) == 0 {
			i := c*fleetSrcPerCycle + j/(nb*ns/fleetSrcPerCycle)
			ops = append(ops, fleetOp{Src: i % fleetSrcPool, K: []int{-1, 1, 2}[i%3], Iters: 2, Shards: 1 + i%2, Seed: interpSeed(r)})
		}
	}
	return ops
}

// fleetSchedule is the open-loop schedule: whole cycles, one op every
// 1/rate seconds, covering at least the window.
func fleetSchedule(seed int64, bs []benchMeta, rate, window float64) []fleetOp {
	r := rand.New(rand.NewSource(seed))
	rot := r.Intn(len(bs))
	var ops []fleetOp
	for c := 0; float64(len(ops)) < rate*window; c++ {
		ops = append(ops, fleetCycle(r, bs, c, rot)...)
	}
	for i := range ops {
		ops[i].Due = float64(i) / rate
	}
	return ops
}
