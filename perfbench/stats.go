package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pathprof/internal/stats"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail figure resting on fewer than ten samples is noise.
const minBeyond = 10

// tailPct is the tail percentile every latency is reported at when the run
// holds enough samples for it.
const tailPct = 95

// reportable reports whether percentile p (0..100) of n samples has at
// least minBeyond samples beyond it.
func reportable(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond
}

// tail returns the tail percentile to report for n samples: tailPct when
// reportable, otherwise the highest whole percentile that is, and never
// below the median.
func tail(n int) float64 {
	p := float64(tailPct)
	for p > 50 && !reportable(n, p) {
		p--
	}
	return p
}

// latencies collects one kind of timed operation.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, ms(d)) }

// summary is a latency distribution as reported: the median and the tail
// percentile that the sample count supports.
type summary struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

func (l *latencies) summary() summary {
	n := len(l.ms)
	p := tail(n)
	return summary{N: n, P50: stats.Percentile(l.ms, 50), TailPct: p, Tail: stats.Percentile(l.ms, p)}
}

func (s summary) String() string {
	return fmt.Sprintf("p50 %.3f ms, p%.0f %.3f ms over n=%d", s.P50, s.TailPct, s.Tail, s.N)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// peakRSSMB reads a process's peak resident set size (VmHWM) from
// /proc/<pid>/status; pid "self" names the calling process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM of %s: %w", pid, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuTicks reads the machine's CPU time from /proc/stat: the ticks stolen
// by the hypervisor and the total. It returns zeros where /proc/stat is
// not readable; the figure only annotates the summary.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
