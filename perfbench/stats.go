package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of samples by the nearest-rank rule,
// computed from the raw samples; ok is false when fewer than ten
// samples lie beyond it, too few for the tail it names.
func quantile(samples []float64, q float64) (v float64, ok bool) {
	if len(samples) == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= 10
}

// parts is how many equal, consecutive parts of a run steadyQuantile
// takes the median over, so that one stretch of interference from
// outside the benchmark does not set the result.
const parts = 3

// split cuts xs into parts consecutive pieces of equal length, the
// remainder going to the last.
func split(xs []float64) [][]float64 {
	n := len(xs) / parts
	var out [][]float64
	for k := 0; k < parts; k++ {
		hi := (k + 1) * n
		if k == parts-1 {
			hi = len(xs)
		}
		out = append(out, xs[k*n:hi])
	}
	return out
}

func median3(v [parts]float64) float64 {
	s := v[:]
	sort.Float64s(s)
	return s[parts/2]
}

// steadyQuantile is the median over the run's parts of each part's
// q-quantile, for latencies in completion order; ok is false when a
// part has fewer than ten samples beyond its quantile.
func steadyQuantile(lat []float64, q float64) (float64, bool) {
	var v [parts]float64
	ok := true
	for k, p := range split(lat) {
		var pok bool
		v[k], pok = quantile(p, q)
		ok = ok && pok
	}
	return median3(v), ok
}

// throughput is the closed-loop rate of the ranks, given each rank's
// latencies in the order it ran them: the sum over ranks of the
// median, over the rank's consecutive windows of w operations, of w
// over the window's summed latency. Summing latencies leaves out the
// time spent checking outputs (Little's law with every rank always in
// a call), and the median over short windows leaves out the stalls
// that other tenants of a shared host put into a few of them.
func throughput(ranks [][]float64, w int) float64 {
	var total float64
	for _, lat := range ranks {
		var rates []float64
		for k := 0; k+w <= len(lat); k += w {
			var sum float64
			for _, x := range lat[k : k+w] {
				sum += x
			}
			rates = append(rates, ratio(float64(w)*1000, sum))
		}
		m, _ := quantile(rates, 0.5)
		total += m
	}
	return total
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the CPU time of the calling OS thread; callers lock
// the goroutine to its thread around the span they measure.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	const rusageThread = 1 // RUSAGE_THREAD, Linux
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample reads the Go runtime's allocation and GC CPU totals.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload leaves idle).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTicks reads the machine's CPU time counters from /proc/stat:
// the total over all states and the share stolen by the hypervisor.
// ok is false where the file is unavailable.
func cpuTicks() (total, steal int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
	}
	steal, _ = strconv.ParseInt(f[8], 10, 64)
	return total, steal, true
}
