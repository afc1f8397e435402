package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/merge"
	"pathprof/internal/obs"
	"pathprof/internal/pgo"
	"pathprof/internal/profstore"
	"pathprof/internal/randprog"
	"pathprof/internal/regvm"
	"pathprof/internal/server"
	"pathprof/internal/workload"
)

// pollEvery is how often a job's status is polled while waiting for it.
const pollEvery = 2 * time.Millisecond

// maxSourceSteps keeps source jobs in the same cost range as benchmark
// shards.
const maxSourceSteps = 200_000

// daemon is a child pathprofd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	logPath string
	exited  chan struct{}
	waitErr error
}

// startDaemon launches pathprofd with default flags on a free local port
// and a fresh data directory under dir, and waits until it is healthy.
func startDaemon(bin, dir string, cli *http.Client) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no pathprofd binary given (-daemon)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{base: "http://" + addr, dataDir: filepath.Join(dir, "data"), logPath: filepath.Join(dir, "pathprofd.log"), exited: make(chan struct{})}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin, "-addr", addr, "-data-dir", d.dataDir)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon must not outlive the harness, however the harness ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("pathprofd exited during start-up: %v; log:\n%s", d.waitErr, d.logTail())
		default:
		}
		if code, body, err := get(cli, d.base+"/healthz"); err == nil && code == http.StatusOK && bytes.HasPrefix(body, []byte("ok")) {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("pathprofd not healthy after 15s; log:\n%s", d.logTail())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes too long.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return d.waitErr
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("pathprofd did not drain within 30s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // it may already have exited
	<-d.exited
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func get(cli *http.Client, url string) (int, []byte, error) {
	resp, err := cli.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func getJSON(cli *http.Client, url string, v any) error {
	code, body, err := get(cli, url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// submit posts a job and returns its id, or the refusal. It also returns
// when the request was fully written: from then on the job is the
// daemon's, and the acknowledgement can lag behind the job's own shards
// holding the daemon's CPUs.
func submit(cli *http.Client, base string, req server.JobRequest) (id string, wrote time.Time, err error) {
	// The transport calls WroteRequest on its own goroutine.
	written := make(chan time.Time, 1)
	defer func() {
		select {
		case wrote = <-written:
		default:
			wrote = time.Now()
		}
	}()
	body, err := json.Marshal(req)
	if err != nil {
		return "", wrote, err
	}
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { written <- time.Now() },
	})
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", wrote, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := cli.Do(hreq)
	if err != nil {
		return "", wrote, err
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", wrote, fmt.Errorf("submit: status %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", wrote, fmt.Errorf("submit refused: status %d: %s", resp.StatusCode, out["error"])
	}
	return out["id"], wrote, nil
}

// await polls a job until it settles.
func await(cli *http.Client, base, id string) (server.JobStatus, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st server.JobStatus
		if err := getJSON(cli, base+"/v1/jobs/"+id, &st); err != nil {
			return st, err
		}
		if st.State == "done" || st.State == "failed" {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after 2m", id, st.State)
		}
		time.Sleep(pollEvery)
	}
}

// fleetClient is the harness side of the fleet workload: the programs it
// submits and the static metadata it needs to check and use reads.
type fleetClient struct {
	cli      *http.Client
	bs       []benchMeta
	sessions map[string]*core.Session  // per benchmark, for pgo.Derive and floors
	sources  []string                  // the seeded source-program pool
	warm     []fleetOp                 // one job per benchmark configuration, run before timing
	floors   map[string]*regvm.Program // uninstrumented code per benchmark
}

func newFleetClient(seed int64, bs []benchMeta) (*fleetClient, error) {
	fc := &fleetClient{
		cli: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU(), DisableCompression: true,
		}},
		bs: bs, sessions: map[string]*core.Session{}, floors: map[string]*regvm.Program{},
	}
	r := rand.New(rand.NewSource(seed))
	for _, b := range bs {
		s, err := core.Open(workload.ByName(b.Name).Source)
		if err != nil {
			return nil, err
		}
		fc.sessions[b.Name] = s
		if fc.floors[b.Name], err = regvm.Compile(s.Prog, nil); err != nil {
			return nil, err
		}
		// Every degree x width the mix submits is compiled before timing,
		// so benchmark jobs hit the daemon's pipeline cache and only
		// first-seen sources miss it.
		for _, k := range profDegrees(b) {
			for _, iters := range fleetIters {
				fc.warm = append(fc.warm, fleetOp{Bench: b.Name, Src: -1, K: k, Iters: iters, Shards: 1, Seed: interpSeed(r)})
			}
		}
	}
	// The source pool is the same for every seed: the first generator
	// seeds whose programs run within the step range.
	for gs := int64(1); len(fc.sources) < fleetSrcPool; gs++ {
		steps, err := randprog.MeasureSteps(gs)
		if err != nil || steps < randprog.MinUsefulSteps || steps > maxSourceSteps {
			continue
		}
		src := randprog.SeedSource(gs)
		fc.sources = append(fc.sources, src)
	}
	return fc, nil
}

func (fc *fleetClient) request(op fleetOp) server.JobRequest {
	req := server.JobRequest{Benchmark: op.Bench, Seed: op.Seed, K: op.K, Iters: op.Iters, Shards: op.Shards}
	if op.Src >= 0 {
		req.Benchmark, req.Source = "", fc.sources[op.Src]
	}
	return req
}

// fleetWrite is a settled job.
type fleetWrite struct {
	op     fleetOp
	id     string
	status server.JobStatus
}

// warmUp runs one job per benchmark to completion, one at a time.
func (fc *fleetClient) warmUp(d *daemon) ([]fleetWrite, error) {
	var out []fleetWrite
	for _, op := range fc.warm {
		id, _, err := submit(fc.cli, d.base, fc.request(op))
		if err != nil {
			return nil, err
		}
		st, err := await(fc.cli, d.base, id)
		if err != nil {
			return nil, err
		}
		if st.State != "done" {
			return nil, fmt.Errorf("warm-up job %s on %s: %s %v", id, op.Bench, st.State, st.Errors)
		}
		out = append(out, fleetWrite{op, id, st})
	}
	return out, nil
}

// opRecord is what one timed op produced.
type opRecord struct {
	late    time.Duration
	latency time.Duration
	err     error
	write   *fleetWrite
	bytes   int
}

func runFleet(e *env) (*result, error) {
	bs, err := benches()
	if err != nil {
		return nil, err
	}
	res := newResult()

	var (
		setups []float64
		fc     *fleetClient
		d      *daemon
		warm   []fleetWrite
	)
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up daemon: %w", err)
			}
		}
		t0 := time.Now()
		if fc, err = newFleetClient(e.seed, bs); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if d, err = startDaemon(e.daemon, filepath.Join(e.work, fmt.Sprintf("daemon-%d", i)), fc.cli); err != nil {
			return nil, err
		}
		if warm, err = fc.warmUp(d); err != nil {
			d.kill()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	// The op schedule is fixed by the seed: whole cycles covering the window.
	ops := fleetSchedule(e.seed, bs, fleetRate, e.window.Seconds())
	recs := make([]opRecord, len(ops))
	traced := tracedReads(e.rec, ops, len(bs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, op := range ops {
		due := start.Add(time.Duration(op.Due * float64(time.Second)))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, op fleetOp, due time.Time) {
			defer wg.Done()
			recs[i] = fc.runOp(i, op, d, due, traced[i])
		}(i, op, due)
	}
	wg.Wait()
	if err := fc.settle(d, recs); err != nil {
		return nil, err
	}
	// The run lasts until its last op completed: a read when it was
	// decoded, a job when the daemon finished it.
	var elapsed time.Duration
	for i, r := range recs {
		if r.err == nil {
			elapsed = max(elapsed, time.Duration(ops[i].Due*float64(time.Second))+r.latency)
		}
	}

	var (
		writeLat, readLat, lateLat latencies
		writes                     = append([]fleetWrite(nil), warm...)
		snapBytes                  []float64
		tracedBy                   = map[string][]float64{}
		plainBy                    = map[string][]float64{}
	)
	nReads := 0
	for i, r := range recs {
		op := ops[i]
		res.Attempted++
		if op.Read {
			nReads++
		}
		lateLat.add(r.late)
		if r.err != nil {
			res.fail(e, "op %d %+v: %v", i, op, r.err)
			continue
		}
		if !op.Read {
			writeLat.add(r.latency)
			writes = append(writes, *r.write)
			continue
		}
		readLat.add(r.latency)
		key := fmt.Sprintf("%v|%s", op.PGO, op.Bench)
		if traced[i] != nil {
			tracedBy[key] = append(tracedBy[key], ms(r.latency))
		} else {
			plainBy[key] = append(plainBy[key], ms(r.latency))
		}
		if !op.PGO {
			snapBytes = append(snapBytes, float64(r.bytes))
		}
	}

	var mx server.MetricsSnapshot
	if err := getJSON(fc.cli, d.base+"/metrics", &mx); err != nil {
		return nil, err
	}
	if mx.Store == nil {
		return nil, errors.New("pathprofd reports no profile store despite -data-dir")
	}
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	overhead, floorMs, calib, err := fc.overheadX(e.seed, d)
	if err != nil {
		return nil, err
	}
	writes = append(writes, calib...)
	if e.rec != nil {
		if err := fc.collectJobTraces(e.rec, d, writes); err != nil {
			return nil, err
		}
	}

	// Checks: every fleet cell against the client-side fold of its jobs'
	// snapshots, then a replay of a copy of the data directory.
	cells, err := fc.checkCells(e, res, d, writes)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping pathprofd: %w", err)
	}
	replay, diskBytes, err := checkReplay(e, res, d.dataDir, cells)
	if err != nil {
		return nil, err
	}
	gap, err := fc.flowGap(e, res, warm)
	if err != nil {
		return nil, err
	}

	w, rd, late := writeLat.summary(), readLat.summary(), lateLat.summary()
	if w.N == 0 || rd.N == 0 {
		return nil, errors.New("no fleet write or read succeeded")
	}
	res.Attempted++
	if w.Tail > fleetLatencyLimitMs {
		res.fail(e, "job p%.0f %.3f ms exceeds the %.0f ms limit", w.TailPct, w.Tail, fleetLatencyLimitMs)
	}
	m := res.Metrics
	m["setup_s"] = median(setups)
	m["ops_per_s"] = float64(w.N+rd.N) / elapsed.Seconds()
	m["op_p50_ms"], m["client.op_p95_ms"] = w.P50, w.Tail
	m["read_p50_ms"], m["client.read_p95_ms"] = rd.P50, rd.Tail
	m["peak_rss_mb"] = rss
	m["overhead_x"] = overhead
	m["flow_gap_pct"] = gap
	e.logf("fleet: %d ops offered at %.0f/s (%d reads), %d writes done, %d reads done, %d refused by 429",
		len(ops), fleetRate, nReads, w.N, rd.N, mx.JobsRejected)
	e.logf("job submit-to-done: %s", w)
	e.logf("fleet read: %s", rd)
	e.logf("job p%.0f %.3f ms against the %.0f ms limit; generator lateness: %s (beside job p50 %.3f ms)",
		w.TailPct, w.Tail, fleetLatencyLimitMs, late, w.P50)
	e.logf("cells checked: %d; replay %.1f ms over %d bytes", len(cells), ms(replay), diskBytes)
	e.logf("daemon stage p50s from /metrics: queue wait %.2f ms, shard execute %.2f ms, estimate %.2f ms, persist %.2f ms",
		mx.QueueWaitMs.P50, mx.ShardExecuteMs.P50, mx.EstimateMs.P50, mx.PersistMs.P50)

	m["loadgen.late_p95_ms"] = late.Tail
	m["server.rejected"] = float64(mx.JobsRejected)
	m["profstore.replay_ms"] = ms(replay)
	m["profstore.disk_bytes"] = float64(diskBytes)
	m["profstore.records"] = float64(mx.Store.Records)
	m["regvm.floor_ms"] = floorMs
	m["merge.snapshot_bytes"] = sum(snapBytes) / float64(max(len(snapBytes), 1))
	if e.rec != nil {
		layers := byLayer(e.rec.all())
		for _, l := range []string{"merge.decode", "pgo.derive", "server.queue", "server.resolve", "server.shard_wait",
			"server.execute", "server.merge", "server.estimate", "server.persist"} {
			m[l+"_ms"] = meanSelfMs(layers, l)
		}
		m["bench.tracing_overhead_pct"] = tracingOverheadPct(tracedBy, plainBy)
	}
	zero(m, "lang.compile_ms", "profile.analyze_ms", "instrument.plan_ms", "regvm.compile_ms",
		"trace.run_ms", "trace.flows_ms", "trace.alloc_mb",
		"regvm.execute_ms", "regvm.allocs_per_run", "regvm.bytes_per_run",
		"regvm.base_ops", "regvm.probe_ops", "regvm.probe_ratio",
		"estimate.solve_ms", "estimate.vars", "estimate.exact_ratio", "estimate.skipped")
	return res, nil
}

// settle waits for every acknowledged job to finish and completes its
// latency with the job's root span from /v1/jobs/{id}/trace, which the
// daemon times from accept to done. Job latencies are so free of how the
// client polls; a job that failed marks its op failed.
func (fc *fleetClient) settle(d *daemon, recs []opRecord) error {
	for i := range recs {
		r := &recs[i]
		if r.write == nil || r.err != nil {
			continue
		}
		st, err := await(fc.cli, d.base, r.write.id)
		if err == nil && st.State != "done" {
			err = fmt.Errorf("job %s %s: %v", r.write.id, st.State, st.Errors)
		}
		if err != nil {
			r.err = err
			continue
		}
		r.write.status = st
		var jt server.JobTrace
		if err := getJSON(fc.cli, d.base+"/v1/jobs/"+r.write.id+"/trace", &jt); err != nil {
			return err
		}
		if jt.Root == nil || jt.Root.Open {
			return fmt.Errorf("job %s: no closed job span", r.write.id)
		}
		r.latency += time.Duration(jt.Root.DurationNs)
	}
	return nil
}

// tracedReads picks the reads a traced run records spans for: alternate
// rounds of reads, a round holding each benchmark's raw and PGO read once,
// so every kind of read is timed both with and without spans. It returns
// the recorder to use per op (nil for untraced ones).
func tracedReads(rec *recorder, ops []fleetOp, nBench int) []*recorder {
	out := make([]*recorder, len(ops))
	reads := 0
	for i, op := range ops {
		if !op.Read {
			continue
		}
		if (reads/(2*nBench))%2 == 1 {
			out[i] = rec
		}
		reads++
	}
	return out
}

// runOp performs one timed op. Its latency runs from when it was due; tr,
// when non-nil, records spans around a read's decode or derive.
func (fc *fleetClient) runOp(i int, op fleetOp, d *daemon, due time.Time, tr *recorder) opRecord {
	rec := opRecord{late: time.Since(due)}
	if !op.Read {
		// The latency runs until the request is written here; settle adds
		// the daemon's own accept-to-done span of the job once the load is
		// over.
		id, wrote, err := submit(fc.cli, d.base, fc.request(op))
		rec.latency = wrote.Sub(due)
		rec.err = err
		rec.write = &fleetWrite{op: op, id: id}
		return rec
	}

	path := "/v1/profiles/"
	if op.PGO {
		path = "/v1/pgo/"
	}
	code, body, err := get(fc.cli, fmt.Sprintf("%s%s%s?k=%d&iters=%d", d.base, path, op.Bench, op.K, op.Iters))
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	if err != nil {
		rec.err = fmt.Errorf("read %s: %w", path, err)
		return rec
	}
	rec.bytes = len(body)
	if op.PGO {
		sp := tr.begin("pgo.derive", -1, i)
		run, err := core.LoadRun(bytes.NewReader(body))
		if err == nil {
			_, err = pgo.Derive(fc.sessions[op.Bench].Info, &pgo.Profile{K: run.K, Iters: run.Iters, Counters: run.Counters})
		}
		tr.end(sp)
		rec.err = err
	} else {
		sp := tr.begin("merge.decode", -1, i)
		snap, err := merge.Decode(bytes.NewReader(body))
		tr.end(sp)
		if err == nil && (snap.K != op.K || snap.Iters != op.Iters) {
			err = fmt.Errorf("read cell (k=%d, iters=%d), got (k=%d, iters=%d)", op.K, op.Iters, snap.K, snap.Iters)
		}
		rec.err = err
	}
	rec.latency = time.Since(due)
	return rec
}

// checkCells compares every fleet cell's served bytes with the
// client-side merge.MergeAll of the /profile snapshots of the cell's done
// jobs. It returns the served bytes per cell.
func (fc *fleetClient) checkCells(e *env, res *result, d *daemon, writes []fleetWrite) (map[profstore.CellKey][]byte, error) {
	byCell := map[profstore.CellKey][]*merge.Snapshot{}
	for _, w := range writes {
		if w.op.Src >= 0 {
			continue // source jobs do not fold into the fleet
		}
		code, body, err := get(fc.cli, d.base+"/v1/jobs/"+w.id+"/profile")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		if err != nil {
			return nil, fmt.Errorf("job %s profile: %w", w.id, err)
		}
		snap, err := merge.Decode(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("job %s profile: %w", w.id, err)
		}
		key := profstore.CellKey{Bench: w.op.Bench, K: w.status.Result.K, Iters: w.status.Result.Iters}
		byCell[key] = append(byCell[key], snap)
	}
	served := map[profstore.CellKey][]byte{}
	for key, snaps := range byCell {
		code, body, err := get(fc.cli, fmt.Sprintf("%s/v1/profiles/%s?k=%d&iters=%d", d.base, key.Bench, key.K, key.Iters))
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		if err != nil {
			return nil, fmt.Errorf("fleet cell %s: %w", key, err)
		}
		served[key] = body
		res.Attempted++
		if err := checkCell(snaps, body); err != nil {
			res.fail(e, "fleet cell %s: %v", key, err)
		}
	}
	return served, nil
}

// checkCell compares a served fleet cell with the fold of its jobs'
// snapshots.
func checkCell(snaps []*merge.Snapshot, served []byte) error {
	want, err := merge.MergeAll(snaps...)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := want.Encode(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), served) {
		return fmt.Errorf("served bytes differ from the fold of its %d jobs' snapshots", len(snaps))
	}
	return nil
}

// checkReplay copies the stopped daemon's data directory, times
// profstore.Open on the copy, and compares every replayed cell with the
// bytes the daemon served. It returns the replay time and the directory's
// size.
func checkReplay(e *env, res *result, dataDir string, served map[profstore.CellKey][]byte) (time.Duration, int64, error) {
	cp := dataDir + "-copy"
	size, err := copyDir(dataDir, cp)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	st, err := profstore.Open(cp, profstore.Config{ReadOnly: true, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	replay := time.Since(t0)
	if err != nil {
		return 0, 0, fmt.Errorf("replaying the data directory: %w", err)
	}
	defer st.Close()
	res.Attempted++
	if got := st.Cells(); len(got) != len(served) {
		res.fail(e, "replay: %d cells, daemon served %d", len(got), len(served))
	}
	for key, want := range served {
		res.Attempted++
		snap, ok := st.Cell(key)
		var buf bytes.Buffer
		if ok {
			ok = snap.Encode(&buf) == nil
		}
		if !ok || !bytes.Equal(buf.Bytes(), want) {
			res.fail(e, "replay: cell %s differs from the served bytes", key)
		}
	}
	return replay, size, nil
}

// copyDir copies a flat-or-nested directory of regular files and returns
// the bytes copied.
func copyDir(src, dst string) (int64, error) {
	var total int64
	err := filepath.WalkDir(src, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		total += int64(len(b))
		return os.WriteFile(target, b, 0o644)
	})
	return total, err
}

// calibrationReps is how many times overheadX visits each benchmark.
const calibrationReps = 5

// overheadX measures the daemon's profiling cost over the uninstrumented
// floor once the load has drained: for each benchmark, single-shard jobs
// at the paper's operating point (a configuration warmed in set-up), each
// execute span paired with an uninstrumented run of the same program and
// seed timed right after it, so both see the same machine speed. It
// returns the geometric mean over the benchmarks of their median paired
// ratio, the mean floor in milliseconds, and the jobs it ran, which fold
// into the fleet like any other.
func (fc *fleetClient) overheadX(seed int64, d *daemon) (float64, float64, []fleetWrite, error) {
	r := rand.New(rand.NewSource(seed))
	var (
		ratios = map[string][]float64{}
		floor  float64
		jobs   []fleetWrite
		out    bytes.Buffer
	)
	for rep := 0; rep < calibrationReps; rep++ {
		for _, b := range fc.bs {
			op := fleetOp{Bench: b.Name, Src: -1, K: b.third(), Iters: 2, Shards: 1, Seed: interpSeed(r)}
			id, _, err := submit(fc.cli, d.base, fc.request(op))
			if err != nil {
				return 0, 0, nil, err
			}
			st, err := await(fc.cli, d.base, id)
			if err == nil && st.State != "done" {
				err = fmt.Errorf("calibration job %s: %s %v", id, st.State, st.Errors)
			}
			if err != nil {
				return 0, 0, nil, err
			}
			out.Reset()
			_, f, err := floorRun(fc.floors[b.Name], op.Seed, &out)
			if err != nil {
				return 0, 0, nil, err
			}
			var jt server.JobTrace
			if err := getJSON(fc.cli, d.base+"/v1/jobs/"+id+"/trace", &jt); err != nil {
				return 0, 0, nil, err
			}
			e, ok := shard0Execute(jt.Root)
			if !ok {
				return 0, 0, nil, fmt.Errorf("job %s: no execute span for shard 0", id)
			}
			ratios[b.Name] = append(ratios[b.Name], float64(e)/float64(f))
			floor += ms(f)
			jobs = append(jobs, fleetWrite{op, id, st})
		}
	}
	logRatio := 0.0
	for _, b := range fc.bs {
		logRatio += math.Log(median(ratios[b.Name]))
	}
	return math.Exp(logRatio / float64(len(fc.bs))), floor / float64(len(jobs)), jobs, nil
}

// shard0Execute finds the duration of shard 0's execute span.
func shard0Execute(root *obs.SpanNode) (int64, bool) {
	if root == nil {
		return 0, false
	}
	for _, sh := range root.Children {
		if sh.Name != server.StageShard || sh.Attrs["shard"] != "0" {
			continue
		}
		for _, ex := range sh.Children {
			if ex.Name == server.StageExecute {
				return ex.DurationNs, true
			}
		}
	}
	return 0, false
}

// flowGap is the daemon's estimator precision on the warm-up jobs at the
// paper's operating point, one single-shard job per benchmark, whose
// Definite and Potential are compared with the tracer's real flow at the
// same seed.
func (fc *fleetClient) flowGap(e *env, res *result, warm []fleetWrite) (float64, error) {
	var num, den float64
	third := map[string]int{}
	for _, b := range fc.bs {
		third[b.Name] = b.third()
	}
	for _, w := range warm {
		if k, ok := third[w.op.Bench]; !ok || w.op.K != k || w.op.Iters != 2 {
			continue
		}
		delete(third, w.op.Bench) // one job per benchmark
		real, err := realFlow(fc.sessions[w.op.Bench].Prog, w.op.Seed)
		if err != nil {
			return 0, err
		}
		r := w.status.Result
		res.Attempted++
		if r.Definite > real || real > r.Potential {
			res.fail(e, "warm-up job %s: definite %d, real %d, potential %d", w.id, r.Definite, real, r.Potential)
			continue
		}
		num += float64(r.Potential - r.Definite)
		den += float64(real)
	}
	return 100 * num / den, nil
}

// serverSpanNames maps the daemon's job-trace stages onto layer names; a
// shard span's self time (its length minus its execute child) is the wait
// for a worker-pool slot.
var serverSpanNames = map[string]string{
	server.StageJob:      "server.job",
	server.StageQueue:    "server.queue",
	server.StageResolve:  "server.resolve",
	server.StageShard:    "server.shard_wait",
	server.StageExecute:  "server.execute",
	server.StageMerge:    "server.merge",
	server.StageEstimate: "server.estimate",
	server.StagePersist:  "server.persist",
}

// collectJobTraces fetches every settled job's span tree from the daemon
// and adds it to the recorder, one op per job.
func (fc *fleetClient) collectJobTraces(rec *recorder, d *daemon, writes []fleetWrite) error {
	for i, w := range writes {
		var jt server.JobTrace
		if err := getJSON(fc.cli, d.base+"/v1/jobs/"+w.id+"/trace", &jt); err != nil {
			return err
		}
		addTree(rec, jt.Root, -1, 1_000_000+i)
	}
	return nil
}

func addTree(rec *recorder, n *obs.SpanNode, parent, op int) {
	if n == nil {
		return
	}
	name := serverSpanNames[n.Name]
	if name == "" {
		name = "server." + n.Name
	}
	id := rec.add(span{Name: name, Start: n.StartNs, End: n.StartNs + n.DurationNs, Parent: parent, Op: op})
	kids := append([]*obs.SpanNode(nil), n.Children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	for _, c := range kids {
		addTree(rec, c, id, op)
	}
}
