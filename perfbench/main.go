// Command perfbench is the repository benchmark. It runs one named
// workload, drawn from a seed, through the system's public functions and
// the pathprofd HTTP API, checks every result, and prints one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// harness records spans around each layer call (alternate ops only, so the
// gap to the untraced ops is the tracing overhead) and prints the
// per-layer metrics. A human-readable summary goes to standard error.
// perfbench/run.sh builds and runs it; README.md defines every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name, Unit string
}

// endToEnd lists the metrics a user of the system sees, printed on every
// workload with -trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"overhead_x", "x"},
	{"flow_gap_pct", "%"},
}

// perLayer lists the per-layer metrics printed with -trace 1. A layer that
// does no work on a workload reports 0 there. The client.* tails are the
// 95th percentiles of the end-to-end latencies: reported, but not gated,
// because on a small shared host their run-to-run spread exceeds any
// bound worth gating on (see README.md).
var perLayer = []metricSpec{
	{"lang.compile_ms", "ms"},
	{"profile.analyze_ms", "ms"},
	{"instrument.plan_ms", "ms"},
	{"regvm.compile_ms", "ms"},
	{"trace.run_ms", "ms"},
	{"trace.flows_ms", "ms"},
	{"trace.alloc_mb", "MB"},
	{"regvm.execute_ms", "ms"},
	{"regvm.allocs_per_run", "count"},
	{"regvm.bytes_per_run", "bytes"},
	{"regvm.floor_ms", "ms"},
	{"regvm.base_ops", "count"},
	{"regvm.probe_ops", "count"},
	{"regvm.probe_ratio", "ratio"},
	{"estimate.solve_ms", "ms"},
	{"estimate.vars", "count"},
	{"estimate.exact_ratio", "ratio"},
	{"estimate.skipped", "count"},
	{"merge.decode_ms", "ms"},
	{"merge.snapshot_bytes", "bytes"},
	{"pgo.derive_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.resolve_ms", "ms"},
	{"server.shard_wait_ms", "ms"},
	{"server.execute_ms", "ms"},
	{"server.merge_ms", "ms"},
	{"server.estimate_ms", "ms"},
	{"server.persist_ms", "ms"},
	{"server.rejected", "count"},
	{"profstore.replay_ms", "ms"},
	{"profstore.records", "count"},
	{"profstore.disk_bytes", "bytes"},
	{"client.op_p95_ms", "ms"},
	{"client.read_p95_ms", "ms"},
	{"loadgen.late_p95_ms", "ms"},
	{"bench.tracing_overhead_pct", "%"},
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

// env is what every workload receives.
type env struct {
	seed    int64
	window  time.Duration
	rec     *recorder // nil unless -trace 1
	daemon  string    // pathprofd binary
	work    string    // scratch directory inside the checkout
	summary *strings.Builder
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.summary, format+"\n", args...) }

// result is one workload run's outcome. Attempted counts ops plus checked
// items; Failed counts failed, refused, and wrong ones.
type result struct {
	Attempted, Failed int
	Metrics           map[string]float64
}

func newResult() *result { return &result{Metrics: map[string]float64{}} }

// fail records one failed or wrong op with its reason.
func (r *result) fail(e *env, format string, args ...any) {
	r.Failed++
	if r.Failed <= 20 {
		e.logf("FAIL: "+format, args...)
	}
}

var workloads = map[string]func(*env) (*result, error){
	"sweep":       runSweep,
	"profile-run": runProfile,
	"fleet":       runFleet,
}

func main() {
	workload := flag.String("workload", "", "workload: sweep | profile-run | fleet")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = record spans and print per-layer metrics")
	daemon := flag.String("daemon", "", "pathprofd binary (fleet workload)")
	work := flag.String("work", ".bench_build/work", "scratch directory")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *daemon, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, daemon, work string) error {
	fn := workloads[name]
	if fn == nil {
		return fmt.Errorf("unknown workload %q (want sweep | profile-run | fleet)", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	e := &env{seed: seed, window: time.Duration(seconds) * time.Second, daemon: daemon,
		work: filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())), summary: &strings.Builder{}}
	if trace == 1 {
		e.rec = newRecorder()
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)

	e.logf("perfbench %s seed=%d window=%ds trace=%d GOMAXPROCS=%d", name, seed, seconds, trace, runtime.GOMAXPROCS(0))
	steal0, total0 := cpuTicks()
	res, err := fn(e)
	// Time the hypervisor gave the machine's CPUs to other guests slows
	// every wall-clock figure; a run whose timings stand out can be told
	// apart by it.
	if steal1, total1 := cpuTicks(); total1 > total0 {
		e.logf("host: %.1f%% of CPU time stolen by the hypervisor during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	fmt.Fprint(os.Stderr, e.summary.String())
	if err != nil {
		return err
	}
	if e.rec != nil {
		dir := filepath.Join(filepath.Dir(filepath.Clean(work)), "traces")
		if err := e.rec.write(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	specs := endToEnd
	if trace == 1 {
		specs = perLayer
	}
	line, err := render(res, specs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fail_ratio %.4f (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	fmt.Println(line)
	return nil
}

// render builds the result line, insisting that the workload produced
// every metric of specs as a finite number.
func render(res *result, specs []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	if res.Attempted < 1 {
		return "", errors.New("no op was attempted")
	}
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s missing or not finite", s.Name)
		}
		out.Metrics[s.Name] = value{v, s.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
