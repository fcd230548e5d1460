// Command perfbench is the repository benchmark. It runs one workload
// against an in-process deployment — 2 I/O daemons over directory
// stores, 3 master replicas and 2 metadata shards, 2 closed-loop
// client ranks, all on loopback TCP — checks every output, and prints
// its metrics, ending with one JSON line.
//
//	perfbench --workload flash-write|cyclic-read|meta-mix --seed N --seconds S --trace 0|1
//
// Every run does the same work: S seconds at the workload's nominal
// rate (spec.nominalRate) fixes each rank's operation count, so a run
// measures about S seconds on a host of that speed and the namespace
// meta-mix builds is the same size in every run. Before timing, the
// ranks warm up for warmSeconds' worth of operations. The rate is the
// median over short windows of each rank's operations, so stalls that
// other tenants of the host put into a few windows do not set it.
//
// With --trace 0 it sets the deployment up several times (reporting
// the median set-up time) and measures the last one with no probes in
// place: the end-to-end metrics. The rate and the median latency in
// its JSON line are corrected for the CPU time the hypervisor stole
// from the machine meanwhile (read from /proc/stat), which on shared
// hosts moves them by a third within minutes; the uncorrected values
// are printed beside them. With --trace 1 it runs half the operations
// on an untraced deployment, then the same operations on a traced one
// (probes around each layer's public surface, see probe.go): the
// per-layer metrics. Both modes check the daemons'
// request and region counts against the paper's closed-form
// arithmetic, and the traced mode also checks that both deployments
// did identical daemon and store work.
//
// Run data lives under .bench_run/ in the working directory and is
// removed on exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/wire"
)

// setupRuns is how many times the untraced mode sets a deployment up;
// setup_s is the median.
const setupRuns = 5

// warmSeconds is how long, at the workload's nominal rate, the ranks
// run before timing starts: long enough for the first seconds' ramp
// (connection buffers, heap growth, idle CPUs waking) to pass.
const warmSeconds = 2

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

func benchMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "flash-write, cyclic-read or meta-mix")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fl.Int("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	sp, err := newSpec(*workload, uint64(*seed))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	root := filepath.Join(".bench_run", fmt.Sprint(os.Getpid()))
	defer os.Remove(filepath.Dir(root)) // only once no other run uses it
	defer os.RemoveAll(root)
	b := &bench{spec: sp, root: root, ops: opsPerRank(sp, *seconds), out: stdout}
	fmt.Fprintf(stdout, "workload %s seed %d: %s\n", *workload, *seed, sp.sizes())
	fmt.Fprintf(stdout, "host: %d CPUs, GOMAXPROCS %d, %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
	var rep *report
	if *trace == 1 {
		rep, err = b.traced()
	} else {
		rep, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range rep.errs {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(rep.errs) > 0 {
		return 1
	}
	return 0
}

// bench runs one workload.
type bench struct {
	spec   spec
	root   string
	ops    int // measured operations per rank
	out    io.Writer
	nsetup int
}

// opsPerRank is the operation count that takes each rank seconds at
// the workload's nominal rate, in whole periods of its operation mix.
func opsPerRank(sp spec, seconds int) int {
	n := int(sp.nominalRate()*float64(seconds)) / numRanks
	p := sp.period()
	return max(p, (n+p-1)/p*p)
}

// rateWindow is the number of consecutive operations of one rank over
// which throughput takes its rate: whole periods of the operation mix,
// at least minWindow operations.
func rateWindow(sp spec) int {
	const minWindow = 10
	p := sp.period()
	return (minWindow + p - 1) / p * p
}

// perRank is n operations on every rank.
func perRank(n int) []int {
	t := make([]int, numRanks)
	for r := range t {
		t[r] = n
	}
	return t
}

// setup starts a deployment and binds the workload to it.
func (b *bench) setup(pr *probes) (*deployment, bound, time.Duration, error) {
	t0 := time.Now()
	b.nsetup++
	d, err := startDeployment(filepath.Join(b.root, fmt.Sprint(b.nsetup)), pr)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("starting the deployment: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bd, err := b.spec.bind(ctx, d)
	if err != nil {
		d.close()
		return nil, nil, 0, fmt.Errorf("creating the workload's files: %w", err)
	}
	return d, bd, time.Since(t0), nil
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (*report, error) {
	var setups []float64
	var d *deployment
	var bd bound
	for k := 0; k < setupRuns; k++ {
		if d != nil {
			d.close()
		}
		var took time.Duration
		var err error
		d, bd, took, err = b.setup(nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.close()
	ph, err := b.measure(d, bd, perRank(b.ops))
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: ph.attempted, failed: ph.failed, errs: ph.errs}
	rep.errs = append(rep.errs, b.crossCheck(ph)...)

	setup, _ := quantile(setups, 0.5)
	all, main := ph.latencies(-1), ph.latencies(classMain)
	// Hypervisor steal slows every call in proportion to the CPU time
	// it takes away, and it comes and goes with other tenants. The
	// JSON rate and median are scaled to the unstolen time; the table
	// below also prints them as measured.
	unstolen := ph.unstolen()
	rawOps := throughput(ph.rankLatencies(), rateWindow(b.spec))
	rawP50, _ := steadyQuantile(main, 0.5)
	opsS, p50 := rawOps/unstolen, rawP50*unstolen
	cpu := ratio(ms(ph.cpu), float64(len(all)))
	rss := ph.peakRSS
	rep.add("ops_s", opsS, "1/s")
	rep.add("p50_ms", p50, "ms")
	rep.add("cpu_ms_per_op", cpu, "ms")
	rep.add("peak_rss_mb", rss, "MB")
	rep.add("setup_s", setup, "s")

	// Every end-to-end metric that applies to the workload, by name.
	w := b.out
	printSteal(w, ph)
	fmt.Fprintf(w, "setup_s %.4f s (median of %d set-ups)\n", setup, len(setups))
	fmt.Fprintf(w, "ops_s %.2f 1/s (n=%d; %.2f before the steal correction)\n", opsS, len(all), rawOps)
	if b.spec.touchesData() {
		var payload int64
		for _, rs := range ph.ranks {
			for _, sm := range rs {
				payload += sm.payload
			}
		}
		fmt.Fprintf(w, "mb_s %.2f MB/s (as measured)\n", rawOps*ratio(float64(payload), float64(len(all)))/1e6)
		printLatency(w, "io", main)
	} else {
		printLatency(w, "create", main)
		printLatency(w, "lookup", ph.latencies(classLookup))
	}
	fmt.Fprintf(w, "p50_ms %.4f ms (the p50 above, steal-corrected)\n", p50)
	fmt.Fprintf(w, "cpu_ms_per_op %.4f ms\n", cpu)
	fmt.Fprintf(w, "peak_rss_mb %.1f MB\n", rss)
	fmt.Fprintf(w, "failed_frac %g (%d of %d)\n", ratio(float64(ph.failed), float64(ph.attempted)), ph.failed, ph.attempted)
	return rep, nil
}

// printSteal reports how much CPU time the hypervisor took from the
// machine during the phase, the main source of run-to-run spread on
// shared hosts.
func printSteal(w io.Writer, ph *phase) {
	if ph.steal < 0 {
		fmt.Fprintln(w, "host steal unknown (no /proc/stat)")
		return
	}
	fmt.Fprintf(w, "host steal %.1f%% of CPU time during the measured phase\n", 100*ph.steal)
}

func printLatency(w io.Writer, name string, lat []float64) {
	p50, _ := steadyQuantile(lat, 0.5)
	fmt.Fprintf(w, "%s_p50_ms %.4f ms (n=%d)\n", name, p50, len(lat))
	if p99, ok := steadyQuantile(lat, 0.99); ok {
		fmt.Fprintf(w, "%s_p99_ms %.4f ms (n=%d)\n", name, p99, len(lat))
	} else {
		fmt.Fprintf(w, "%s_p99_ms omitted: fewer than 10 of %d samples beyond it in a third of the run\n", name, len(lat))
	}
}

// traced measures the per-layer metrics: an untraced deployment for
// half the time, then a traced one for the same operations per rank.
func (b *bench) traced() (*report, error) {
	d, bd, _, err := b.setup(nil)
	if err != nil {
		return nil, err
	}
	half := perRank(max(b.spec.period(), b.ops/2/b.spec.period()*b.spec.period()))
	plain, err := b.measure(d, bd, half)
	d.close()
	if err != nil {
		return nil, err
	}
	pr := newProbes()
	d, bd, _, err = b.setup(pr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	tr, err := b.measure(d, bd, half)
	if err != nil {
		return nil, err
	}
	rep := &report{
		attempted: plain.attempted + tr.attempted,
		failed:    plain.failed + tr.failed,
		errs:      append(plain.errs, tr.errs...),
	}
	rep.errs = append(rep.errs, b.crossCheck(plain)...)
	rep.errs = append(rep.errs, b.crossCheck(tr)...)
	rep.errs = append(rep.errs, sameWork(plain, tr)...)

	ops := float64(tr.total())
	reqs := float64(tr.iod.Requests)
	t := tr.trace
	rep.add("client.requests_per_op", ratio(float64(tr.client.Requests+tr.client.MgrRequests), ops), "count")
	rep.add("client.self_ms_per_op", ratio(ms(t.self), ops), "ms")
	rep.add("client.wire_ms_per_op", ratio(ms(t.covered), ops), "ms")
	rep.add("client.inflight_mean", ratio(float64(t.wireSum), float64(t.covered)), "count")
	rep.add("client.retries", float64(tr.client.Retries), "count")
	rtt, _ := quantile(t.rtts, 0.5)
	rep.add("pvfsnet.rtt_p50_ms", rtt, "ms")
	rep.add("pvfsnet.bytes_per_request", ratio(float64(t.clientBytes), float64(t.clientRequests)), "B")
	rep.add("pvfsnet.writes_per_request", ratio(float64(t.clientWrites), float64(t.clientRequests)), "count")
	rep.add("pvfsnet.write_blocked_ms_per_op", ratio(ms(t.writeBlocked), ops), "ms")
	res, _ := quantile(t.residence, 0.5)
	var resSum float64
	for _, v := range t.residence {
		resSum += v
	}
	rep.add("iod.residence_p50_ms", res, "ms")
	rep.add("iod.self_ms_per_request", ratio(resSum-ms(t.storeTime), reqs), "ms")
	rep.add("iod.regions_per_request", ratio(float64(tr.iod.Regions), reqs), "count")
	rep.add("store.ms_per_request", ratio(ms(t.storeTime), reqs), "ms")
	for m, name := range methodNames {
		rep.add("store.calls_per_request."+name, ratio(float64(t.storeCalls[m]), reqs), "count")
	}
	rep.add("store.syscalls_per_request", ratio(float64(tr.iod.StoreSyscallsRead+tr.iod.StoreSyscallsWrite), reqs), "count")
	rep.add("store.submissions_per_request", ratio(float64(tr.iod.StoreSubmissions), reqs), "count")
	rep.add("store.bytes_copied_per_byte", ratio(float64(tr.iod.StoreBytesCopied), float64(tr.iod.BytesRead+tr.iod.BytesWritten)), "B/B")
	m := tr.meta
	rep.add("meta.proposals_per_append", ratio(float64(m.MetaProposals), float64(m.MetaAppendRounds)), "count")
	rep.add("meta.proposals_per_batch", ratio(float64(m.MetaProposals), float64(m.MetaBatches)), "count")
	rep.add("meta.wal_syncs_per_entry", ratio(float64(m.MetaWALSyncs), float64(m.MetaProposals)), "count")
	rep.add("meta.elections", float64(m.ElectionCount), "count")
	rep.add("meta.forwards_per_op", ratio(float64(m.MetaForwards), ops), "count")
	rep.add("runtime.alloc_bytes_per_op", ratio(float64(tr.rt1.allocBytes-tr.rt0.allocBytes), ops), "B")
	rep.add("runtime.gc_cpu_frac", ratio(tr.rt1.gcCPU-tr.rt0.gcCPU, tr.rt1.totalCPU-tr.rt0.totalCPU), "ratio")
	// Both deployments ran the same operations, so the ratio of their
	// summed call latencies, over unstolen time, is the probes' cost.
	rep.add("trace.overhead_frac", ratio(tr.busyTotal()*tr.unstolen(), plain.busyTotal()*plain.unstolen())-1, "ratio")

	fmt.Fprintf(b.out, "traced %d ops (%v per rank) on a second deployment after the same untraced ops\n", tr.total(), tr.ops)
	printSteal(b.out, plain)
	printSteal(b.out, tr)
	for _, mt := range rep.metrics {
		fmt.Fprintf(b.out, "%s %.6g %s\n", mt.name, mt.value, mt.unit)
	}
	return rep, nil
}

// crossCheck compares a phase's request and region counts with the
// closed-form prediction for the operations it ran.
func (b *bench) crossCheck(ph *phase) []error {
	var want counts
	for r, n := range ph.ops {
		c := b.spec.predict(r)
		want.requests += int64(n) * c.requests
		want.regions += int64(n) * c.regions
	}
	var errs []error
	if got := ph.client.Requests + ph.client.MgrRequests; got != want.requests {
		errs = append(errs, fmt.Errorf("clients sent %d requests, closed form %d", got, want.requests))
	}
	if !b.spec.touchesData() {
		want = counts{}
	}
	if ph.iod.Requests != want.requests || ph.iod.Regions != want.regions {
		errs = append(errs, fmt.Errorf("daemons served %d requests with %d regions, closed form %d with %d",
			ph.iod.Requests, ph.iod.Regions, want.requests, want.regions))
	}
	return errs
}

// sameWork checks that two phases of identical operations did
// identical daemon and store work: the same requests, regions, batch
// submissions and copied bytes, so the same datapath. Store syscalls
// must agree to within syscallSlack of the requests, because a ring
// wait that a signal interrupts re-enters the kernel.
func sameWork(a, b *phase) []error {
	type work struct{ requests, regions, submissions, copied int64 }
	of := func(s wire.ServerStats) work {
		return work{s.Requests, s.Regions, s.StoreSubmissions, s.StoreBytesCopied}
	}
	var errs []error
	if wa, wb := of(a.iod), of(b.iod); wa != wb {
		errs = append(errs, fmt.Errorf("untraced and traced runs differ in daemon work: %+v vs %+v", wa, wb))
	}
	sa := a.iod.StoreSyscallsRead + a.iod.StoreSyscallsWrite
	sb := b.iod.StoreSyscallsRead + b.iod.StoreSyscallsWrite
	if d := sa - sb; d*syscallSlack > a.iod.Requests || -d*syscallSlack > a.iod.Requests {
		errs = append(errs, fmt.Errorf("untraced and traced runs made %d and %d store syscalls for %d requests", sa, sb, a.iod.Requests))
	}
	return errs
}

// syscallSlack: the store syscall counts of two identical phases may
// differ by one per syscallSlack requests.
const syscallSlack = 100

// phase is one measured stretch of a workload on one deployment.
type phase struct {
	ops, last         []int
	ranks             [][]sample // each rank's, in the order it ran them
	attempted, failed int64
	errs              []error
	cpu               time.Duration // process CPU, checking excluded
	peakRSS           float64       // MiB, when the ranks finished
	steal             float64       // machine's stolen CPU share; -1 unknown
	rt0, rt1          runtimeSample
	client            client.CounterValues
	iod, meta         wire.ServerStats
	trace             traceTotals
}

func (p *phase) total() int {
	n := 0
	for _, o := range p.ops {
		n += o
	}
	return n
}

// unstolen is the share of the machine's CPU time the hypervisor left
// to it during the phase (1 when unknown).
func (p *phase) unstolen() float64 {
	return 1 - max(p.steal, 0)
}

// busyTotal is the summed latency of every operation.
func (p *phase) busyTotal() float64 {
	var t float64
	for _, rs := range p.ranks {
		for _, s := range rs {
			t += s.ms
		}
	}
	return t
}

// latencies returns the latencies of class (all classes for -1) in
// completion order, merging the ranks' samples.
func (p *phase) latencies(class int) []float64 {
	var out []float64
	next := make([]int, len(p.ranks))
	for {
		r := -1
		for k, rs := range p.ranks {
			if next[k] < len(rs) && (r < 0 || rs[next[k]].end < p.ranks[r][next[r]].end) {
				r = k
			}
		}
		if r < 0 {
			return out
		}
		s := p.ranks[r][next[r]]
		next[r]++
		if class < 0 || s.class == class {
			out = append(out, s.ms)
		}
	}
}

// rankLatencies returns every rank's latencies in the order it ran
// its operations.
func (p *phase) rankLatencies() [][]float64 {
	out := make([][]float64, len(p.ranks))
	for r, rs := range p.ranks {
		for _, s := range rs {
			out[r] = append(out[r], s.ms)
		}
	}
	return out
}

// sample is one timed operation.
type sample struct {
	end     time.Duration // since the phase started
	class   int
	ms      float64
	payload int64
}

// traceTotals is what the probes saw during a phase.
type traceTotals struct {
	self, covered, wireSum time.Duration
	rtts, residence        []float64
	clientBytes            int64
	clientWrites           int64
	clientRequests         int64
	writeBlocked           time.Duration
	storeCalls             [nMethods]int64
	storeTime              time.Duration
}

// maxErrs bounds the check failures kept for the report.
const maxErrs = 5

// measure warms the ranks up, then runs them closed-loop, target[r]
// operations on rank r.
func (b *bench) measure(d *deployment, bd bound, target []int) (*phase, error) {
	ctx := context.Background()
	warm := opsPerRank(b.spec, warmSeconds)
	err := runRanks(func(r int) error {
		for i := 0; i < warm; i++ {
			if _, _, err := bd.op(ctx, r, i); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if err := bd.check(r, i); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ph := &phase{ops: make([]int, numRanks), last: make([]int, numRanks), ranks: make([][]sample, numRanks)}
	pr := d.probes
	var st0 [nMethods]int64
	var stNanos0, blocked0, cbytes0, cwrites0, creqs0 int64
	if pr != nil {
		for _, rp := range pr.ranks {
			rp.take()
		}
		pr.iod.mu.Lock()
		pr.iod.residence = nil
		pr.iod.mu.Unlock()
		for m := range st0 {
			st0[m] = pr.store.calls[m].Load()
		}
		stNanos0 = pr.store.nanos.Load()
		blocked0 = pr.wire.writeBlockedNs.Load()
		cbytes0 = pr.wire.clientBytes.Load()
		cwrites0 = pr.wire.clientWrites.Load()
		creqs0 = pr.wire.clientRequests.Load()
	}
	client0, iod0, meta0 := d.clientCounters(), d.iodStats(), d.metaStats()
	ph.rt0 = readRuntime()
	ticks0, steal0, ticksOK := cpuTicks()
	cpu0 := processCPU()

	var mu sync.Mutex
	var checkCPU atomic.Int64
	start := time.Now()
	err = runRanks(func(r int) error {
		samples := make([]sample, 0, target[r])
		var tt traceTotals
		var errs []error
		var failed int64
		n, i := 0, warm
		for ; n < target[r]; n, i = n+1, i+1 {
			t0 := time.Now()
			class, payload, err := bd.op(ctx, r, i)
			t1 := time.Now()
			span := t1.Sub(t0)
			samples = append(samples, sample{t1.Sub(start), class, ms(span), payload})
			if pr != nil {
				calls := pr.ranks[r].take()
				cov := covered(calls, t0, t1)
				tt.covered += cov
				tt.self += span - cov
				for _, c := range calls {
					tt.wireSum += c.to.Sub(c.from)
					tt.rtts = append(tt.rtts, ms(c.to.Sub(c.from)))
				}
			}
			runtime.LockOSThread()
			c0 := threadCPU()
			if err == nil {
				err = bd.check(r, i)
			}
			checkCPU.Add(int64(threadCPU() - c0))
			runtime.UnlockOSThread()
			if err != nil {
				failed++
				if len(errs) < maxErrs {
					errs = append(errs, err)
				}
			}
		}
		ph.ops[r], ph.last[r], ph.ranks[r] = n, i-1, samples
		mu.Lock()
		defer mu.Unlock()
		ph.trace.self += tt.self
		ph.trace.covered += tt.covered
		ph.trace.wireSum += tt.wireSum
		ph.trace.rtts = append(ph.trace.rtts, tt.rtts...)
		ph.attempted += int64(n)
		ph.failed += failed
		ph.errs = append(ph.errs, errs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ph.cpu = processCPU() - cpu0 - time.Duration(checkCPU.Load())
	// The benchmark's own work after this point (read-back, statistics)
	// is left out of the peak.
	ph.peakRSS = peakRSS()
	ph.steal = -1
	if ticks1, steal1, ok := cpuTicks(); ok && ticksOK && ticks1 > ticks0 {
		ph.steal = float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	ph.rt1 = readRuntime()
	c1 := d.clientCounters()
	ph.client = client.CounterValues{
		Requests:    c1.Requests - client0.Requests,
		MgrRequests: c1.MgrRequests - client0.MgrRequests,
		Retries:     c1.Retries - client0.Retries,
	}
	ph.iod = subStats(d.iodStats(), iod0)
	ph.meta = subStats(d.metaStats(), meta0)
	if pr != nil {
		t := &ph.trace
		pr.iod.mu.Lock()
		t.residence = pr.iod.residence
		pr.iod.residence = nil
		pr.iod.mu.Unlock()
		for m := range st0 {
			t.storeCalls[m] = pr.store.calls[m].Load() - st0[m]
		}
		t.storeTime = time.Duration(pr.store.nanos.Load() - stNanos0)
		t.writeBlocked = time.Duration(pr.wire.writeBlockedNs.Load() - blocked0)
		t.clientBytes = pr.wire.clientBytes.Load() - cbytes0
		t.clientWrites = pr.wire.clientWrites.Load() - cwrites0
		t.clientRequests = pr.wire.clientRequests.Load() - creqs0
	}

	vctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := bd.verify(vctx, ph.last); err != nil {
		ph.failed++
		ph.errs = append(ph.errs, err)
	}
	return ph, nil
}

// runRanks runs fn for every rank concurrently and returns the first
// error.
func runRanks(fn func(r int) error) error {
	errs := make([]error, numRanks)
	var wg sync.WaitGroup
	for r := 0; r < numRanks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(r)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// subStats is a-b over the counters the benchmark reads.
func subStats(a, b wire.ServerStats) wire.ServerStats {
	return wire.ServerStats{
		Requests:           a.Requests - b.Requests,
		Regions:            a.Regions - b.Regions,
		BytesRead:          a.BytesRead - b.BytesRead,
		BytesWritten:       a.BytesWritten - b.BytesWritten,
		StoreSyscallsRead:  a.StoreSyscallsRead - b.StoreSyscallsRead,
		StoreSyscallsWrite: a.StoreSyscallsWrite - b.StoreSyscallsWrite,
		StoreSubmissions:   a.StoreSubmissions - b.StoreSubmissions,
		StoreBytesCopied:   a.StoreBytesCopied - b.StoreBytesCopied,
		MetaForwards:       a.MetaForwards - b.MetaForwards,
		ElectionCount:      a.ElectionCount - b.ElectionCount,
		MetaProposals:      a.MetaProposals - b.MetaProposals,
		MetaBatches:        a.MetaBatches - b.MetaBatches,
		MetaAppendRounds:   a.MetaAppendRounds - b.MetaAppendRounds,
		MetaWALSyncs:       a.MetaWALSyncs - b.MetaWALSyncs,
	}
}

// report is the run's result line.
type report struct {
	attempted, failed int64
	errs              []error
	metrics           []metric
}

type metric struct {
	name, unit string
	value      float64
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) result() jsonResult {
	out := jsonResult{
		Correct:   len(r.errs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return out
}
