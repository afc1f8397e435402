package server

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"testing"

	"pathprof/internal/obs"
)

// TestJobTraceAndLogs runs a sharded job through a daemon with a capture
// logger installed and asserts the three observability surfaces DESIGN.md
// §12 documents: the span tree on /v1/jobs/{id}/trace has the documented
// taxonomy, the structured log stream carries the documented events in
// lifecycle order, and every stage histogram on /metrics saw observations.
func TestJobTraceAndLogs(t *testing.T) {
	capture := obs.NewCapture(slog.LevelDebug)
	// The library layers (pipeline, regvm) log through the process-wide
	// logger; route it into the same capture as the daemon's own events.
	obs.SetLogger(slog.New(capture))
	t.Cleanup(func() { obs.SetLogger(nil) })
	d := newDaemon(t, Config{Runners: 1, Logger: slog.New(capture), Persist: testStore(t, t.TempDir())}, true)

	const shards = 3
	code, out := d.post(t, JobRequest{Source: testSrc, Seed: 11, K: 1, Shards: shards})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	id := out["id"]
	if st := d.await(t, id); st.State != "done" {
		t.Fatalf("job state %q, errors %v", st.State, st.Errors)
	}

	// --- Span tree ---------------------------------------------------
	tcode, raw := d.get(t, "/v1/jobs/"+id+"/trace")
	if tcode != http.StatusOK {
		t.Fatalf("/trace: status %d: %s", tcode, raw)
	}
	var tr JobTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != id || tr.State != "done" || tr.Root == nil {
		t.Fatalf("trace envelope: %+v", tr)
	}
	if tr.Root.Name != StageJob || tr.Root.Open {
		t.Fatalf("root span: %+v", tr.Root)
	}
	if tr.Root.Attrs["job_id"] != id {
		t.Fatalf("root span attrs: %v", tr.Root.Attrs)
	}
	census := map[string]int{}
	obs.Walk(tr.Root, func(n *obs.SpanNode, _ int) {
		census[n.Name]++
		if n.Open {
			t.Fatalf("settled job has open span %q", n.Name)
		}
	})
	want := map[string]int{
		StageJob: 1, StageQueue: 1, StageResolve: 1,
		StageShard: shards, StageExecute: shards,
		StageMerge: 1, StageEstimate: 1,
	}
	for stage, n := range want {
		if census[stage] != n {
			t.Fatalf("span census: %s ×%d, want ×%d (full: %v)", stage, census[stage], n, census)
		}
	}
	for stage := range census {
		if want[stage] == 0 {
			t.Fatalf("undocumented stage %q in trace", stage)
		}
	}
	// Each shard span nests exactly one execute span and carries its index.
	seenShards := map[string]bool{}
	for _, c := range tr.Root.Children {
		if c.Name != StageShard {
			continue
		}
		if len(c.Children) != 1 || c.Children[0].Name != StageExecute {
			t.Fatalf("shard span children: %+v", c.Children)
		}
		seenShards[c.Attrs["shard"]] = true
	}
	if len(seenShards) != shards {
		t.Fatalf("shard attrs not distinct: %v", seenShards)
	}

	// --- Log stream --------------------------------------------------
	// Lifecycle events arrive in order; shard events land between start
	// and merge but interleave freely among themselves.
	msgs := capture.Messages()
	order := []string{"job.accepted", "job.start", "job.merge", "job.estimate", "job.done"}
	pos := -1
	for _, evt := range order {
		found := -1
		for i := pos + 1; i < len(msgs); i++ {
			if msgs[i] == evt {
				found = i
				break
			}
		}
		if found < 0 {
			t.Fatalf("event %q missing after index %d in %v", evt, pos, msgs)
		}
		pos = found
	}
	shardDone := 0
	for _, e := range capture.Entries() {
		if e.Message == "job.shard.done" {
			shardDone++
			if e.Attrs["job_id"] != id {
				t.Fatalf("shard event attrs: %v", e.Attrs)
			}
		}
	}
	if shardDone != shards {
		t.Fatalf("job.shard.done ×%d, want ×%d", shardDone, shards)
	}
	// The library-layer debug events DESIGN.md §12.3 documents reach the
	// same stream while the job's shards compile and run.
	seen := map[string]bool{}
	for _, m := range msgs {
		seen[m] = true
	}
	for _, evt := range []string{"pipeline.plan", "pipeline.code", "pipeline.execute", "regvm.compile", "regvm.run"} {
		if !seen[evt] {
			t.Fatalf("library debug event %q missing from %v", evt, msgs)
		}
	}

	// --- Histograms --------------------------------------------------
	// Fetch the job profile first so snapshot_bytes has an observation.
	if pcode, _ := d.get(t, "/v1/jobs/"+id+"/profile"); pcode != http.StatusOK {
		t.Fatalf("profile: status %d", pcode)
	}
	// Source jobs never persist (no fleet cell); a benchmark job gives
	// persist_ms its observation and its trace the persist stage.
	bcode, bout := d.post(t, JobRequest{Benchmark: "008.espresso", Seed: 1, K: 1, Shards: 1})
	if bcode != http.StatusAccepted {
		t.Fatalf("benchmark submit: status %d", bcode)
	}
	if st := d.await(t, bout["id"]); st.State != "done" {
		t.Fatalf("benchmark job state %q, errors %v", st.State, st.Errors)
	}
	btcode, braw := d.get(t, "/v1/jobs/"+bout["id"]+"/trace")
	if btcode != http.StatusOK {
		t.Fatalf("benchmark /trace: status %d", btcode)
	}
	var btr JobTrace
	if err := json.Unmarshal(braw, &btr); err != nil {
		t.Fatal(err)
	}
	persistSpans := 0
	obs.Walk(btr.Root, func(n *obs.SpanNode, _ int) {
		if n.Name == StagePersist {
			persistSpans++
		}
	})
	if persistSpans != 1 {
		t.Fatalf("benchmark job trace has %d persist spans, want 1", persistSpans)
	}
	m := d.metrics(t)
	for _, name := range HistogramMetricNames {
		h, ok := m.StageHistogram(name)
		if !ok {
			t.Fatalf("StageHistogram(%q) unknown", name)
		}
		if h.Count == 0 {
			t.Fatalf("histogram %q saw no observations", name)
		}
	}
	if m.ShardExecuteMs.Count != shards+1 {
		t.Fatalf("shard_execute_ms count %d, want %d (source shards + benchmark shard)",
			m.ShardExecuteMs.Count, shards+1)
	}
}

// TestTraceUnknownJob asserts the endpoint 404s cleanly.
func TestTraceUnknownJob(t *testing.T) {
	d := newDaemon(t, Config{}, true)
	if code, _ := d.get(t, "/v1/jobs/nope/trace"); code != http.StatusNotFound {
		t.Fatalf("trace of unknown job: status %d, want 404", code)
	}
}

// TestRejectedJobLogs asserts a queue-full bounce emits job.rejected.
func TestRejectedJobLogs(t *testing.T) {
	capture := obs.NewCapture(slog.LevelDebug)
	// No runners started: the queue fills and stays full.
	d := newDaemon(t, Config{QueueCap: 1, Logger: slog.New(capture)}, false)
	if code, _ := d.post(t, JobRequest{Source: testSrc, Shards: 1}); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	if code, _ := d.post(t, JobRequest{Source: testSrc, Shards: 1}); code != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", code)
	}
	var sawRejected bool
	for _, m := range capture.Messages() {
		if m == "job.rejected" {
			sawRejected = true
		}
	}
	if !sawRejected {
		t.Fatalf("no job.rejected event in %v", capture.Messages())
	}
}
