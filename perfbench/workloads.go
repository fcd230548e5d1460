package main

// The three workloads. Each is built once from the seed (the inputs),
// then bound to every deployment it runs on (file creation and
// seeding, part of set-up). A bound workload runs rank r's i-th
// operation and checks its output; the operation sequence of a rank
// is a function of the seed, the rank and i alone.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"

	"pvfs/internal/client"
	"pvfs/internal/core"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
	"pvfs/internal/simcluster"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// Operation classes: the latency each workload is judged by, and the
// lookups of meta-mix.
const (
	classMain = iota
	classLookup
)

// stripe is the file striping of the datapath workloads.
var stripe = striping.Config{PCount: numIODs, StripeSize: 16 << 10}

// spec is a workload's inputs.
type spec interface {
	// bind creates and seeds the workload's files on d.
	bind(ctx context.Context, d *deployment) (bound, error)
	// predict is the closed-form request and region count of one
	// operation of rank.
	predict(rank int) counts
	// period is the length of the workload's operation mix; a rank runs
	// whole periods.
	period() int
	// nominalRate is the operations per second, over all ranks, that
	// size a run: about the rate the workload sustained on the host the
	// benchmark was sized on (2 vCPUs of a shared host).
	nominalRate() float64
	// touchesData reports whether the workload uses the I/O daemons
	// after set-up.
	touchesData() bool
	// sizes describes the inputs for the report.
	sizes() string
}

// bound is a workload bound to one deployment.
type bound interface {
	// op runs rank's i-th operation and returns its class and payload
	// bytes.
	op(ctx context.Context, rank, i int) (class int, payload int64, err error)
	// check verifies the output of rank's i-th operation; its time is
	// left out of the measurements.
	check(rank, i int) error
	// verify checks the deployment's final state, given each rank's
	// last operation index.
	verify(ctx context.Context, last []int) error
}

// counts is what one operation costs in requests to the daemons.
type counts struct{ requests, regions int64 }

func newSpec(name string, seed uint64) (spec, error) {
	switch name {
	case "flash-write":
		return newFlash(seed), nil
	case "cyclic-read":
		return newCyclic(seed)
	case "meta-mix":
		return metaMix{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want flash-write, cyclic-read or meta-mix)", name)
}

// seededBytes fills n bytes from the seed and a stream number.
func seededBytes(seed, stream uint64, n int64) []byte {
	r := rand.NewChaCha8(chachaSeed(seed, stream))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func chachaSeed(seed, stream uint64) [32]byte {
	var s [32]byte
	for i := 0; i < 8; i++ {
		s[i] = byte(seed >> (8 * i))
		s[8+i] = byte(stream >> (8 * i))
	}
	return s
}

// listPrediction counts one rank's list I/O operation with the
// paper's request model (simcluster.CountWorkload) and checks the
// model's batch count against the closed form of §3.3
// (core.ListRequests at 64 regions per request).
func listPrediction(pat patterns.Pattern, write bool) ([]counts, error) {
	p := simcluster.ChibaCity()
	p.Servers = stripe.PCount
	p.Striping = stripe
	w := simcluster.BuildWorkload(p, pat, write, simcluster.MethodList, simcluster.MethodOptions{})
	out := make([]counts, pat.Ranks())
	for r := range out {
		c := simcluster.CountWorkload(simcluster.Workload{Params: p, RankStages: w.RankStages[r : r+1]})
		if want := core.ListRequests(int64(pat.FileRegions(r)), wire.MaxRegionsPerRequest); c.Batches != want {
			return nil, fmt.Errorf("rank %d: model issues %d list batches, closed form %d", r, c.Batches, want)
		}
		out[r] = counts{c.Requests, c.Regions}
	}
	return out, nil
}

// --- flash-write ---

// flashSpec is the FLASH I/O checkpoint (§4.3) at 16 blocks per rank.
// Each rank alternates between two seeded memory images so the final
// read-back shows which write landed last.
type flashSpec struct {
	pat    *patterns.Flash
	mem    []ioseg.List
	file   []ioseg.List
	arenas [][2][]byte
	pred   []counts
}

func newFlash(seed uint64) *flashSpec {
	pat := &patterns.Flash{NumRanks: numRanks, Blocks: 16, Elems: 8, Guard: 1, Vars: 24}
	s := &flashSpec{pat: pat}
	for r := 0; r < numRanks; r++ {
		s.mem = append(s.mem, patterns.MemList(pat, r))
		s.file = append(s.file, patterns.FileList(pat, r))
		n := patterns.ArenaSize(pat, r)
		s.arenas = append(s.arenas, [2][]byte{
			seededBytes(seed, uint64(2*r), n),
			seededBytes(seed, uint64(2*r+1), n),
		})
	}
	return s
}

func (s *flashSpec) predict(rank int) counts {
	if s.pred == nil {
		pred, err := listPrediction(s.pat, true)
		if err != nil {
			panic(err) // the pattern is fixed; a mismatch is a bug
		}
		s.pred = pred
	}
	return s.pred[rank]
}

func (s *flashSpec) period() int          { return 2 }
func (s *flashSpec) nominalRate() float64 { return 200 }
func (s *flashSpec) touchesData() bool    { return true }
func (s *flashSpec) sizes() string {
	return fmt.Sprintf("%d ranks x %d blocks of %d^3 cells x %d vars: %d file regions of %d B and %d memory pieces of 8 B per rank, %d B file, stripe %d B over %d daemons",
		numRanks, s.pat.Blocks, s.pat.Elems, s.pat.Vars, len(s.file[0]), s.file[0][0].Length, len(s.mem[0]), s.pat.FileBytes(), stripe.StripeSize, stripe.PCount)
}

type flashBound struct {
	s     *flashSpec
	files []*client.File
}

func (s *flashSpec) bind(ctx context.Context, d *deployment) (bound, error) {
	files, err := createShared(ctx, d, "flash.ckpt")
	if err != nil {
		return nil, err
	}
	return &flashBound{s, files}, nil
}

// createShared creates name from rank 0 and opens it from the others.
func createShared(ctx context.Context, d *deployment, name string) ([]*client.File, error) {
	f, err := d.fss[0].CreateContext(ctx, name, stripe)
	if err != nil {
		return nil, err
	}
	files := []*client.File{f}
	for _, fs := range d.fss[1:] {
		g, err := fs.OpenContext(ctx, name)
		if err != nil {
			return nil, err
		}
		files = append(files, g)
	}
	return files, nil
}

func (b *flashBound) op(ctx context.Context, rank, i int) (int, int64, error) {
	res, err := b.files[rank].Run(ctx, client.Request{
		Write: true,
		Arena: b.s.arenas[rank][i%2],
		Mem:   b.s.mem[rank],
		File:  b.s.file[rank],
	})
	if err == nil && res.Method != client.AccessList {
		err = fmt.Errorf("auto method took %v, want list", res.Method)
	}
	return classMain, res.Bytes, err
}

func (b *flashBound) check(rank, i int) error { return nil }

// verify reads the checkpoint back and compares it with the image the
// ranks' last writes produce.
func (b *flashBound) verify(ctx context.Context, last []int) error {
	want := make([]byte, b.s.pat.FileBytes())
	for r, i := range last {
		stream := gather(b.s.arenas[r][i%2], b.s.mem[r])
		var pos int64
		for _, seg := range b.s.file[r] {
			copy(want[seg.Offset:seg.End()], stream[pos:pos+seg.Length])
			pos += seg.Length
		}
	}
	got := make([]byte, len(want))
	if _, err := b.files[0].Run(ctx, client.Request{Arena: got, File: ioseg.List{{Offset: 0, Length: int64(len(got))}}}); err != nil {
		return fmt.Errorf("reading the checkpoint back: %w", err)
	}
	if i := firstDiff(got, want); i >= 0 {
		return fmt.Errorf("checkpoint byte %d reads %#x, want %#x", i, got[i], want[i])
	}
	return nil
}

// gather packs the memory pieces of arena in list order.
func gather(arena []byte, mem ioseg.List) []byte {
	out := make([]byte, 0, mem.TotalLength())
	for _, m := range mem {
		out = append(out, arena[m.Offset:m.End()]...)
	}
	return out
}

func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// --- cyclic-read ---

// cyclicSpec is the interleaved 1-D cyclic read (§4.2) with 1 KiB
// regions over an 8 MiB seeded file.
type cyclicSpec struct {
	pat   *patterns.Cyclic1D
	image []byte
	file  []ioseg.List
	want  [][]byte // each rank's bytes in stream order
	pred  []counts
}

const (
	cyclicFileBytes   = 8 << 20
	cyclicRegionBytes = 1 << 10
)

func newCyclic(seed uint64) (*cyclicSpec, error) {
	pat, err := patterns.NewCyclic1D(numRanks, cyclicFileBytes/(numRanks*cyclicRegionBytes), cyclicFileBytes)
	if err != nil {
		return nil, err
	}
	s := &cyclicSpec{pat: pat, image: seededBytes(seed, 100, cyclicFileBytes)}
	for r := 0; r < numRanks; r++ {
		fl := patterns.FileList(pat, r)
		s.file = append(s.file, fl)
		var w []byte
		for _, seg := range fl {
			w = append(w, s.image[seg.Offset:seg.End()]...)
		}
		s.want = append(s.want, w)
	}
	return s, nil
}

func (s *cyclicSpec) predict(rank int) counts {
	if s.pred == nil {
		pred, err := listPrediction(s.pat, false)
		if err != nil {
			panic(err)
		}
		s.pred = pred
	}
	return s.pred[rank]
}

func (s *cyclicSpec) period() int          { return 1 }
func (s *cyclicSpec) nominalRate() float64 { return 190 }
func (s *cyclicSpec) touchesData() bool    { return true }
func (s *cyclicSpec) sizes() string {
	return fmt.Sprintf("%d ranks x %d regions of %d B, %d B file, stripe %d B over %d daemons",
		numRanks, s.pat.Accesses, s.pat.BlockSize(), cyclicFileBytes, stripe.StripeSize, stripe.PCount)
}

type cyclicBound struct {
	s     *cyclicSpec
	files []*client.File
	bufs  [][]byte
}

func (s *cyclicSpec) bind(ctx context.Context, d *deployment) (bound, error) {
	files, err := createShared(ctx, d, "cyclic.dat")
	if err != nil {
		return nil, err
	}
	if _, err := files[0].WriteAt(s.image, 0); err != nil {
		return nil, fmt.Errorf("seeding: %w", err)
	}
	b := &cyclicBound{s: s, files: files}
	for r := 0; r < numRanks; r++ {
		b.bufs = append(b.bufs, make([]byte, len(s.want[r])))
	}
	return b, nil
}

func (b *cyclicBound) op(ctx context.Context, rank, i int) (int, int64, error) {
	res, err := b.files[rank].Run(ctx, client.Request{Arena: b.bufs[rank], File: b.s.file[rank]})
	if err == nil && res.Method != client.AccessList {
		err = fmt.Errorf("auto method took %v, want list", res.Method)
	}
	return classMain, res.Bytes, err
}

// check compares the read with the seed image and zeroes the buffer,
// so a region the next read fails to deliver cannot pass: a KiB of
// seeded bytes is never all zero.
func (b *cyclicBound) check(rank, i int) error {
	buf := b.bufs[rank]
	j := firstDiff(buf, b.s.want[rank])
	clear(buf)
	if j >= 0 {
		return fmt.Errorf("rank %d read %d: stream byte %d differs from the seeded file", rank, i, j)
	}
	return nil
}

func (b *cyclicBound) verify(ctx context.Context, last []int) error { return nil }

// --- meta-mix ---

// metaMix loops each rank over one create and ten lookups of its own
// files: five opens by name and five stats by handle, in an order and
// on files chosen by the seed.
type metaMix struct{ seed uint64 }

const (
	lookupsPerCreate = 10
	mixPeriod        = 1 + lookupsPerCreate
)

// predict: every create, open and stat is one request to a shard.
func (m metaMix) predict(rank int) counts { return counts{requests: 1} }
func (m metaMix) period() int             { return mixPeriod }
func (m metaMix) touchesData() bool       { return false }

// nominalRate is under half the rate meta-mix sustains: every create
// adds a file, and the larger namespace of a longer run makes the peak
// memory spread more from run to run.
func (m metaMix) nominalRate() float64 { return 10000 }

func (m metaMix) sizes() string {
	return fmt.Sprintf("%d ranks, each looping 1 create + %d opens + %d stats on %d masters and %d shards",
		numRanks, lookupsPerCreate/2, lookupsPerCreate/2, numMasters, numShards)
}

func (m metaMix) bind(ctx context.Context, d *deployment) (bound, error) {
	b := &metaBound{m: m, d: d}
	b.ranks = make([]metaRank, numRanks)
	return b, nil
}

type metaBound struct {
	m     metaMix
	d     *deployment
	ranks []metaRank
}

// metaRank is one rank's namespace and its current loop iteration.
type metaRank struct {
	handles []uint64 // by create index
	plan    [lookupsPerCreate]lookup
	got     uint64 // handle the last operation returned
	want    uint64 // handle it should have returned
}

type lookup struct {
	open bool
	file int
}

// planIteration draws iteration k's lookups from the seed: a shuffle
// of five opens and five stats, each on one of the k+1 files the rank
// has created.
func (m metaMix) planIteration(rank, k int) [lookupsPerCreate]lookup {
	rng := rand.New(rand.NewPCG(m.seed, uint64(rank)<<32|uint64(k)))
	var p [lookupsPerCreate]lookup
	for j := range p {
		p[j] = lookup{open: j < lookupsPerCreate/2, file: rng.IntN(k + 1)}
	}
	rng.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
	return p
}

func fileName(rank, k int) string { return fmt.Sprintf("r%d-f%07d", rank, k) }

func (b *metaBound) op(ctx context.Context, rank, i int) (int, int64, error) {
	st := &b.ranks[rank]
	fs := b.d.fss[rank]
	k, j := i/mixPeriod, i%mixPeriod
	if j == 0 {
		f, err := fs.CreateContext(ctx, fileName(rank, k), stripe)
		if err != nil {
			return classMain, 0, err
		}
		if len(st.handles) != k {
			return classMain, 0, fmt.Errorf("rank %d: create %d out of order", rank, k)
		}
		st.handles = append(st.handles, f.Handle())
		st.plan = b.m.planIteration(rank, k)
		st.got, st.want = f.Handle(), f.Handle()
		return classMain, 0, nil
	}
	l := st.plan[j-1]
	if l.file >= len(st.handles) {
		return classLookup, 0, fmt.Errorf("rank %d: lookup of file %d before its create", rank, l.file)
	}
	st.want = st.handles[l.file]
	if l.open {
		f, err := fs.OpenContext(ctx, fileName(rank, l.file))
		if err != nil {
			return classLookup, 0, err
		}
		st.got = f.Handle()
		return classLookup, 0, nil
	}
	info, err := fs.StatHandle(ctx, st.want)
	st.got = info.Handle
	return classLookup, 0, err
}

func (b *metaBound) check(rank, i int) error {
	st := &b.ranks[rank]
	if st.got != st.want || st.got == 0 {
		return fmt.Errorf("rank %d op %d: got handle %d, want %d", rank, i, st.got, st.want)
	}
	return nil
}

func (b *metaBound) verify(ctx context.Context, last []int) error { return nil }
