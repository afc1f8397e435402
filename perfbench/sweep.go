package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"pathprof/internal/estimate"
	"pathprof/internal/experiments"
	"pathprof/internal/instrument"
	"pathprof/internal/pipeline"
	"pathprof/internal/workload"
)

// sweepOutcome is what one sweep op produced: the collected run and the
// estimate at every degree (ests[k+1] is degree k).
type sweepOutcome struct {
	br   *experiments.BenchRun
	ests []experiments.FlowEstimate
}

// sweepUntraced runs one op exactly as the paper's evaluation does:
// experiments.CollectWithOptions with the package defaults, then
// EstimateAll at every degree. It returns the op and read (estimate)
// latencies.
func sweepUntraced(b *workload.Benchmark, pool *pipeline.Pool) (*sweepOutcome, time.Duration, time.Duration, error) {
	t0 := time.Now()
	br, err := experiments.CollectWithOptions(b, pool, experiments.DefaultStore, experiments.DefaultEngine)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	out := &sweepOutcome{br: br, ests: make([]experiments.FlowEstimate, br.MaxK+2)}
	for k := -1; k <= br.MaxK; k++ {
		if out.ests[k+1], err = experiments.EstimateAll(br, k, estimate.Paper); err != nil {
			return nil, 0, 0, err
		}
	}
	t2 := time.Now()
	return out, t2.Sub(t0), t2.Sub(t1), nil
}

// sweepTraced composes the same public calls CollectWithOptions makes —
// compile, analyze, ground-truth trace, then plan, compile and execute for
// every degree fanned out on the pool — with a span around each, then
// estimates as sweepUntraced does. allocMB is the bytes the tracer
// allocated. It is a copy of experiments.CollectWithOptions and its
// collectBase, and must follow them when they change;
// TestSweepTracedMatchesUntraced fails when the two compute different
// results.
func sweepTraced(rec *recorder, opID int, b *workload.Benchmark, pool *pipeline.Pool) (out *sweepOutcome, opDur, readDur time.Duration, allocMB float64, err error) {
	t0 := time.Now()
	root := rec.begin("op", -1, opID)
	defer rec.end(root)
	var (
		p  *pipeline.Pipeline
		br *experiments.BenchRun
	)
	pool.Do(func() {
		sp := rec.begin("lang.compile", root, opID)
		prog, cerr := b.Compile()
		rec.end(sp)
		if cerr != nil {
			err = cerr
			return
		}
		sp = rec.begin("profile.analyze", root, opID)
		p, err = pipeline.New(prog, pipeline.Options{Store: experiments.DefaultStore, Engine: experiments.DefaultEngine, Pool: pool})
		rec.end(sp)
		if err != nil {
			return
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		sp = rec.begin("trace.run", root, opID)
		tr, mt, terr := p.Trace(b.Seed, false, nil)
		rec.end(sp)
		if terr != nil {
			err = fmt.Errorf("%s: trace run: %w", b.Name, terr)
			return
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		br = &experiments.BenchRun{B: b, Info: p.Info, Tracer: tr, BaseOps: mt.BaseOps, MaxK: p.Info.MaxDegree()}
	})
	if err != nil {
		return nil, 0, 0, 0, err
	}

	br.Runs = make([]*experiments.KRun, br.MaxK+2)
	errs := make([]error, br.MaxK+2)
	var wg sync.WaitGroup
	for k := -1; k <= br.MaxK; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			pool.Do(func() {
				cfg := instrument.Config{K: k, Loops: k >= 0, Interproc: k >= 0}
				sp := rec.begin("instrument.plan", root, opID)
				_, perr := p.Plan(cfg)
				rec.end(sp)
				sp = rec.begin("regvm.compile", root, opID)
				_, cerr := p.RegCode(cfg)
				rec.end(sp)
				if perr != nil || cerr != nil {
					errs[k+1] = errors.Join(perr, cerr)
					return
				}
				sp = rec.begin("regvm.execute", root, opID)
				run, rerr := p.Execute(cfg, b.Seed, nil)
				rec.end(sp)
				if rerr != nil {
					errs[k+1] = fmt.Errorf("%s k=%d: %w", b.Name, k, rerr)
					return
				}
				br.Runs[k+1] = &experiments.KRun{K: k, Counters: run.Counters, Report: run.Overhead}
			})
		}(k)
	}
	wg.Wait()
	if err = errors.Join(errs...); err != nil {
		return nil, 0, 0, 0, err
	}

	t1 := time.Now()
	sp := rec.begin("trace.flows", root, opID)
	_, err = br.Real()
	rec.end(sp)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	out = &sweepOutcome{br: br, ests: make([]experiments.FlowEstimate, br.MaxK+2)}
	for k := -1; k <= br.MaxK; k++ {
		sp := rec.begin("estimate.solve", root, opID)
		out.ests[k+1], err = experiments.EstimateAll(br, k, estimate.Paper)
		rec.end(sp)
		if err != nil {
			return nil, 0, 0, 0, err
		}
	}
	return out, time.Since(t0), time.Since(t1), allocMB, nil
}

// checkSweep validates one sweep op: at every degree the Ball-Larus
// counters and call counts equal the tracer's ground truth (at k = 0 this
// is the paper's OL-0 == BL identity), and Definite <= real <= Potential.
func checkSweep(o *sweepOutcome) error {
	tr := o.br.Tracer
	for k := -1; k <= o.br.MaxK; k++ {
		c := o.br.At(k).Counters
		if !reflect.DeepEqual(c.BL, tr.BL) {
			return fmt.Errorf("k=%d: BL counters differ from the tracer's", k)
		}
		if !reflect.DeepEqual(c.Calls, tr.Calls) {
			return fmt.Errorf("k=%d: call counts differ from the tracer's", k)
		}
		fe := o.ests[k+1]
		if fe.Definite > fe.Real || fe.Real > fe.Potential {
			return fmt.Errorf("k=%d: bounds violated: definite %d, real %d, potential %d", k, fe.Definite, fe.Real, fe.Potential)
		}
	}
	return nil
}

func runSweep(e *env) (*result, error) {
	bs, err := benches()
	if err != nil {
		return nil, err
	}
	pool := pipeline.Shared()
	res := newResult()

	// Set-up: draw the op order, then one untimed op per benchmark at its
	// canonical seed, so every code path is warm before timing and set-up
	// time does not depend on the seed.
	var setups []float64
	var gen *sweepGen
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		gen = newSweepGen(e.seed, bs)
		for _, b := range bs {
			if _, _, _, err := sweepUntraced(workload.ByName(b.Name), pool); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var (
		opLat, readLat latencies
		gapNum, gapDen float64
		ohNum, ohDen   float64
		vars, exact    int
		skipped        int
		baseOps        []float64
		probeOps       []float64
		allocMB        []float64
		tracedBy       = map[string][]float64{}
		plainBy        = map[string][]float64{}
	)
	start := time.Now()
	nOps := 0
	// Whole cycles only: the window is a minimum, and the cycle under way
	// when it ends is finished, so every benchmark weighs the same.
	for nOps == 0 || time.Since(start) < e.window || nOps%len(bs) != 0 {
		op := gen.next()
		b := workload.ByName(op.Bench)
		b.Seed = op.Seed
		traced := e.rec != nil && nOps%2 == 1
		var (
			o        *sweepOutcome
			opD, rdD time.Duration
			alloc    float64
			opErr    error
		)
		if traced {
			o, opD, rdD, alloc, opErr = sweepTraced(e.rec, nOps, b, pool)
		} else {
			o, opD, rdD, opErr = sweepUntraced(b, pool)
		}
		nOps++
		res.Attempted++
		if opErr != nil {
			res.fail(e, "sweep %s seed %d: %v", op.Bench, op.Seed, opErr)
			continue
		}
		if err := checkSweep(o); err != nil {
			res.fail(e, "sweep %s seed %d: %v", op.Bench, op.Seed, err)
			continue
		}
		opLat.add(opD)
		readLat.add(rdD)
		if traced {
			tracedBy[op.Bench] = append(tracedBy[op.Bench], ms(opD))
			allocMB = append(allocMB, alloc)
		} else {
			plainBy[op.Bench] = append(plainBy[op.Bench], ms(opD))
		}
		// The paper's operating point, on the first cycle only, so these
		// figures are fixed by the seed.
		if nOps <= len(bs) {
			kc := o.br.KChosen()
			fe := o.ests[kc+1]
			gapNum += float64(fe.Potential - fe.Definite)
			gapDen += float64(fe.Real)
			r := o.br.At(kc).Report
			ohNum += float64(r.BaseOps + r.BLOps + r.LoopOps + r.InterOps)
			ohDen += float64(r.BaseOps)
		}
		for _, fe := range o.ests {
			vars += fe.Vars
			exact += fe.Exact
			skipped += fe.Skipped
		}
		for _, kr := range o.br.Runs {
			baseOps = append(baseOps, float64(kr.Report.BaseOps))
			probeOps = append(probeOps, float64(kr.Report.BLOps+kr.Report.LoopOps+kr.Report.InterOps))
		}
	}
	elapsed := time.Since(start)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	if opLat.summary().N == 0 {
		return nil, errors.New("no sweep op succeeded")
	}

	op, rd := opLat.summary(), readLat.summary()
	m := res.Metrics
	m["setup_s"] = median(setups)
	m["ops_per_s"] = float64(op.N) / elapsed.Seconds()
	m["op_p50_ms"], m["client.op_p95_ms"] = op.P50, op.Tail
	m["read_p50_ms"], m["client.read_p95_ms"] = rd.P50, rd.Tail
	m["peak_rss_mb"] = rss
	m["overhead_x"] = ohNum / ohDen
	m["flow_gap_pct"] = 100 * gapNum / gapDen
	e.logf("sweep op (collect + estimate at every degree): %s", op)
	e.logf("sweep read (estimate at every degree): %s", rd)
	e.logf("first cycle at k=max/3: flow gap %.3f%%, op-count overhead %.4fx", m["flow_gap_pct"], m["overhead_x"])

	nRuns := float64(len(baseOps))
	m["estimate.vars"] = float64(vars) / float64(op.N)
	m["estimate.exact_ratio"] = float64(exact) / float64(max(vars, 1))
	m["estimate.skipped"] = float64(skipped) / float64(op.N)
	m["regvm.base_ops"] = sum(baseOps) / nRuns
	m["regvm.probe_ops"] = sum(probeOps) / nRuns
	m["regvm.probe_ratio"] = sum(probeOps) / sum(baseOps)
	if e.rec != nil {
		layers := byLayer(e.rec.all())
		for _, l := range []string{"lang.compile", "profile.analyze", "instrument.plan", "regvm.compile",
			"trace.run", "trace.flows", "regvm.execute", "estimate.solve"} {
			m[l+"_ms"] = meanSelfMs(layers, l)
		}
		m["trace.alloc_mb"] = sum(allocMB) / float64(max(len(allocMB), 1))
		m["bench.tracing_overhead_pct"] = tracingOverheadPct(tracedBy, plainBy)
		e.logf("traced sweep op split, share of wall time (concurrent spans share it):%s",
			split(layers, func(ls *layerStats) float64 { return ls.AttribNs }))
		e.logf("traced sweep op split, share of busy time (self times, concurrent spans both count):%s",
			split(layers, func(ls *layerStats) float64 { return float64(ls.SelfNs) }))
		attributed := 0.0
		for _, ls := range layers {
			attributed += ls.AttribNs
		}
		e.logf("traced op time %.1f ms = sum of attributed self times %.1f ms", float64(layers["op"].DurationNs)/1e6, attributed/1e6)
	}
	zero(m, "regvm.allocs_per_run", "regvm.bytes_per_run", "regvm.floor_ms",
		"merge.decode_ms", "merge.snapshot_bytes", "pgo.derive_ms",
		"server.queue_ms", "server.resolve_ms", "server.shard_wait_ms", "server.execute_ms",
		"server.merge_ms", "server.estimate_ms", "server.persist_ms", "server.rejected",
		"profstore.replay_ms", "profstore.records", "profstore.disk_bytes", "loadgen.late_p95_ms")
	return res, nil
}

// zero records layers that do no work on a workload.
func zero(m map[string]float64, names ...string) {
	for _, n := range names {
		m[n] = 0
	}
}

// tracingOverheadPct compares traced with untraced op times of the same
// kind (keyed by, e.g., benchmark): the sum over kinds of the median traced
// time against the sum of the median untraced time, as a percentage excess.
// Medians keep a few contended ops from deciding the figure.
func tracingOverheadPct(traced, plain map[string][]float64) float64 {
	var t, p float64
	for k, xs := range traced {
		ys := plain[k]
		if len(xs) == 0 || len(ys) == 0 {
			continue
		}
		t += median(xs)
		p += median(ys)
	}
	if p == 0 {
		return 0
	}
	return 100 * (t/p - 1)
}
