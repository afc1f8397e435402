package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/estimate"
	"pathprof/internal/instrument"
	"pathprof/internal/ir"
	"pathprof/internal/lang"
	"pathprof/internal/pipeline"
	"pathprof/internal/regvm"
	"pathprof/internal/workload"
)

// profBench is one benchmark's warmed state: a session whose plans and
// code are built for every configuration the op list draws, and the
// uninstrumented register program for the floor runs.
type profBench struct {
	meta  benchMeta
	sess  *core.Session
	floor *regvm.Program
}

// profConfig is the instrumentation configuration of op.
func profConfig(k, iters int) instrument.Config {
	if k < 0 {
		return instrument.Config{K: -1}
	}
	return instrument.Config{K: k, Loops: true, Interproc: true, Iters: iters}
}

// profile runs op on its session: the developer's profiled run.
func (pb *profBench) profile(op profOp) (*core.Run, error) {
	if op.K < 0 {
		return pb.sess.ProfileBL(op.Seed)
	}
	return pb.sess.ProfileOLIters(op.Seed, op.K, op.Iters)
}

// setupProfile opens a session per benchmark and warms every configuration
// profile-run draws. With a recorder, it composes the calls core.Open makes
// (compile, analyze) and builds each plan and its code under its own span.
func setupProfile(bs []benchMeta, rec *recorder) (map[string]*profBench, error) {
	out := map[string]*profBench{}
	for i, m := range bs {
		src := workload.ByName(m.Name).Source
		var sess *core.Session
		if rec == nil {
			s, err := core.Open(src)
			if err != nil {
				return nil, err
			}
			sess = s
		} else {
			root := rec.begin("setup", -1, -1-i)
			sp := rec.begin("lang.compile", root, -1-i)
			prog, err := lang.Compile(src)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			sp = rec.begin("profile.analyze", root, -1-i)
			p, err := pipeline.New(prog, pipeline.Options{})
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			sess = core.FromPipeline(p)
			for _, k := range profDegrees(m) {
				for _, iters := range profIters {
					cfg := profConfig(k, iters)
					sp = rec.begin("instrument.plan", root, -1-i)
					_, perr := p.Plan(cfg)
					rec.end(sp)
					sp = rec.begin("regvm.compile", root, -1-i)
					_, cerr := p.RegCode(cfg)
					rec.end(sp)
					if err := errors.Join(perr, cerr); err != nil {
						return nil, err
					}
				}
			}
			rec.end(root)
		}
		floor, err := regvm.Compile(sess.Prog, nil)
		if err != nil {
			return nil, err
		}
		pb := &profBench{meta: m, sess: sess, floor: floor}
		for _, k := range profDegrees(m) {
			for _, iters := range profIters {
				if _, err := pb.profile(profOp{K: k, Iters: iters, Seed: 1}); err != nil {
					return nil, fmt.Errorf("warming %s k=%d iters=%d: %w", m.Name, k, iters, err)
				}
			}
		}
		out[m.Name] = pb
	}
	return out, nil
}

// floorRun is the uninstrumented run of prog at seed.
func floorRun(prog *regvm.Program, seed uint64, out *bytes.Buffer) (*regvm.Machine, time.Duration, error) {
	m := regvm.NewMachine(prog, seed)
	m.Out = out
	t0 := time.Now()
	err := m.Run(nil)
	return m, time.Since(t0), err
}

// treeReference re-runs op on the tree-walking reference engine and
// returns its serialized counters.
func treeReference(pb *profBench, op profOp) ([]byte, error) {
	p := pb.sess.Pipeline()
	cfg := profConfig(op.K, op.Iters)
	run, err := p.ExecuteStore(pipeline.EngineTree, cfg, op.Seed, nil, p.NewStore(cfg.EffIters()), 0)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = run.Counters.Serialize(&buf)
	return buf.Bytes(), err
}

// checkAgainstTree compares a run's serialized counters with the tree
// reference's.
func checkAgainstTree(run *core.Run, ref []byte) error {
	var buf bytes.Buffer
	if err := run.Counters.Serialize(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), ref) {
		return errors.New("serialized counters differ from the tree reference engine's")
	}
	return nil
}

// checkFloor compares a profiled run with the uninstrumented run of the
// same program and seed: identical output and base cost.
func checkFloor(run *core.Run, out []byte, floor *regvm.Machine, floorOut []byte) error {
	if !bytes.Equal(out, floorOut) {
		return errors.New("program output differs from the uninstrumented run's")
	}
	if run.Overhead.BaseOps != floor.BaseOps || run.Steps != floor.Steps {
		return fmt.Errorf("base ops %d / steps %d differ from the uninstrumented run's %d / %d",
			run.Overhead.BaseOps, run.Steps, floor.BaseOps, floor.Steps)
	}
	return nil
}

func runProfile(e *env) (*result, error) {
	bs, err := benches()
	if err != nil {
		return nil, err
	}
	res := newResult()
	var (
		setups []float64
		pbs    map[string]*profBench
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var rec *recorder
		if i == setupReps-1 {
			rec = e.rec
		}
		if pbs, err = setupProfile(bs, rec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	type sampled struct {
		op  profOp
		run *core.Run
	}
	var (
		opLat, readLat, floorLat latencies
		opSum, floorSum          float64
		baseOps, probeOps        []float64
		allocs, bytesPer         []float64
		checks                   []sampled
		tracedBy                 = map[string][]float64{}
		plainBy                  = map[string][]float64{}
		out, floorOut, saved     bytes.Buffer
	)
	// Whole cycles only: the window is a minimum, and the cycle under way
	// when it ends is finished.
	r := rand.New(rand.NewSource(e.seed))
	start := time.Now()
	n := -1
	for time.Since(start) < e.window {
		for _, op := range profCycle(r, bs) {
			n++
			pb := pbs[op.Bench]
			traced := e.rec != nil && n%2 == 1
			out.Reset()
			floorOut.Reset()
			pb.sess.Out = &out

			var (
				root, sp int
				before   runtime.MemStats
			)
			if traced {
				root = e.rec.begin("op", -1, n)
				runtime.ReadMemStats(&before)
				sp = e.rec.begin("regvm.execute", root, n)
			}
			t0 := time.Now()
			run, err := pb.profile(op)
			opD := time.Since(t0)
			if traced {
				e.rec.end(sp)
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
				bytesPer = append(bytesPer, float64(after.TotalAlloc-before.TotalAlloc))
				e.rec.end(root)
			}
			res.Attempted++
			if err != nil {
				res.fail(e, "profile %+v: %v", op, err)
				continue
			}
			// The read: loading the run back from its saved form, as
			// `pathprof -load-profile` does.
			saved.Reset()
			if err := core.SaveRun(&saved, run); err != nil {
				res.fail(e, "saving %+v: %v", op, err)
				continue
			}
			t1 := time.Now()
			loaded, err := core.LoadRun(bytes.NewReader(saved.Bytes()))
			rdD := time.Since(t1)
			if err == nil && (loaded.K != run.K || loaded.Iters != run.Iters) {
				err = errors.New("loaded run differs from the saved one")
			}
			if err != nil {
				res.fail(e, "loading %+v: %v", op, err)
				continue
			}
			m, floorD, err := floorRun(pb.floor, op.Seed, &floorOut)
			if err != nil {
				res.fail(e, "floor run %+v: %v", op, err)
				continue
			}
			if err := checkFloor(run, out.Bytes(), m, floorOut.Bytes()); err != nil {
				res.fail(e, "profile %+v: %v", op, err)
				continue
			}
			opLat.add(opD)
			readLat.add(rdD)
			floorLat.add(floorD)
			opSum += ms(opD)
			floorSum += ms(floorD)
			baseOps = append(baseOps, float64(run.Overhead.BaseOps))
			probeOps = append(probeOps, float64(run.Overhead.BLOps+run.Overhead.LoopOps+run.Overhead.InterOps))
			key := fmt.Sprintf("%s|%d|%d", op.Bench, op.K, op.Iters)
			if traced {
				tracedBy[key] = append(tracedBy[key], ms(opD))
			} else {
				plainBy[key] = append(plainBy[key], ms(opD))
			}
			if op.Check && len(checks) < maxChecks {
				checks = append(checks, sampled{op, run})
			}
		}
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	// Outside the window: the sampled runs against the tree reference.
	for _, c := range checks {
		res.Attempted++
		ref, err := treeReference(pbs[c.op.Bench], c.op)
		if err == nil {
			err = checkAgainstTree(c.run, ref)
		}
		if err != nil {
			res.fail(e, "tree reference %+v: %v", c.op, err)
		}
	}
	gap, err := sessionFlowGap(e, res, bs, pbs)
	if err != nil {
		return nil, err
	}

	op, rd := opLat.summary(), readLat.summary()
	if op.N == 0 {
		return nil, errors.New("no profiled run succeeded")
	}
	mt := res.Metrics
	mt["setup_s"] = median(setups)
	// Throughput of the caller's profiling time: the paired floor runs,
	// saves and checks are the harness's work, not the developer's.
	mt["ops_per_s"] = float64(op.N) / (opSum / 1000)
	mt["op_p50_ms"], mt["client.op_p95_ms"] = op.P50, op.Tail
	mt["read_p50_ms"], mt["client.read_p95_ms"] = rd.P50, rd.Tail
	mt["peak_rss_mb"] = rss
	mt["overhead_x"] = opSum / floorSum
	mt["flow_gap_pct"] = gap
	e.logf("profiled run: %s", op)
	e.logf("saved-run load (read): %s", rd)
	e.logf("uninstrumented floor: %s", floorLat.summary())
	e.logf("tree-reference checks: %d sampled runs", len(checks))

	mt["regvm.floor_ms"] = floorSum / float64(len(floorLat.ms))
	mt["regvm.base_ops"] = sum(baseOps) / float64(len(baseOps))
	mt["regvm.probe_ops"] = sum(probeOps) / float64(len(probeOps))
	mt["regvm.probe_ratio"] = sum(probeOps) / sum(baseOps)
	if e.rec != nil {
		layers := byLayer(e.rec.all())
		for _, l := range []string{"lang.compile", "profile.analyze", "instrument.plan", "regvm.compile", "regvm.execute"} {
			mt[l+"_ms"] = meanSelfMs(layers, l)
		}
		mt["regvm.allocs_per_run"] = sum(allocs) / float64(max(len(allocs), 1))
		mt["regvm.bytes_per_run"] = sum(bytesPer) / float64(max(len(bytesPer), 1))
		mt["bench.tracing_overhead_pct"] = tracingOverheadPct(tracedBy, plainBy)
	}
	zero(mt, "trace.run_ms", "trace.flows_ms", "trace.alloc_mb",
		"estimate.solve_ms", "estimate.vars", "estimate.exact_ratio", "estimate.skipped",
		"merge.decode_ms", "merge.snapshot_bytes", "pgo.derive_ms",
		"server.queue_ms", "server.resolve_ms", "server.shard_wait_ms", "server.execute_ms",
		"server.merge_ms", "server.estimate_ms", "server.persist_ms", "server.rejected",
		"profstore.replay_ms", "profstore.records", "profstore.disk_bytes", "loadgen.late_p95_ms")
	return res, nil
}

// sessionFlowGap is the estimator's precision through the session API:
// one run per benchmark at the paper's operating point (k = max/3, two
// iterations, Paper mode) at a seeded interpreter seed, estimated with
// Session.EstimateMode and compared with the tracer's real flow. It
// returns sum(Potential - Definite) / sum(real) in percent and counts a
// bounds violation as a failure.
func sessionFlowGap(e *env, res *result, bs []benchMeta, pbs map[string]*profBench) (float64, error) {
	gen := newSweepGen(e.seed, bs)
	var num, den float64
	for range bs {
		op := gen.next()
		pb := pbs[op.Bench]
		pb.sess.Out = nil
		res.Attempted++
		run, err := pb.sess.ProfileOLIters(op.Seed, pb.meta.third(), 2)
		if err != nil {
			res.fail(e, "flow-gap run %s: %v", op.Bench, err)
			continue
		}
		pe, err := pb.sess.EstimateMode(run, estimate.Paper)
		if err != nil {
			res.fail(e, "flow-gap estimate %s: %v", op.Bench, err)
			continue
		}
		real, err := realFlow(pb.sess.Prog, op.Seed)
		if err != nil {
			return 0, err
		}
		if pe.Definite() > real || real > pe.Potential() {
			res.fail(e, "flow-gap %s: definite %d, real %d, potential %d", op.Bench, pe.Definite(), real, pe.Potential())
			continue
		}
		num += float64(pe.Potential() - pe.Definite())
		den += float64(real)
	}
	return 100 * num / den, nil
}

// realFlow is the exact interesting-path flow of prog at seed, from the
// ground-truth tracer.
func realFlow(prog *ir.Program, seed uint64) (int64, error) {
	s, err := core.OpenProgram(prog)
	if err != nil {
		return 0, err
	}
	tr, err := s.Trace(seed)
	if err != nil {
		return 0, err
	}
	rf, err := tr.Flows()
	if err != nil {
		return 0, err
	}
	return int64(rf.Total()), nil
}
