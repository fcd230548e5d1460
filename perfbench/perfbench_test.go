package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pvfs/internal/store"
	"pvfs/internal/wire"
)

func bindSpec(t *testing.T, name string) (*deployment, bound, spec) {
	t.Helper()
	sp, err := newSpec(name, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDeployment(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b, err := sp.bind(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	return d, b, sp
}

// TestCyclicCheckCatchesCorruptStripe flips one byte of a daemon's
// stripe file behind the daemon's back; the next read must fail its
// check.
func TestCyclicCheckCatchesCorruptStripe(t *testing.T) {
	d, b, _ := bindSpec(t, "cyclic-read")
	ctx := context.Background()
	if _, _, err := b.op(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.check(0, 0); err != nil {
		t.Fatalf("clean read failed its check: %v", err)
	}

	// Logical byte 0 is rank 0's first byte; it sits at physical
	// offset 0 on the file's first daemon.
	f := b.(*cyclicBound).files[0]
	daemon := -1
	for i, s := range d.iods {
		if s.Addr() == f.Servers()[0] {
			daemon = i
		}
	}
	if daemon < 0 {
		t.Fatal("first stripe's daemon not found")
	}
	path := filepath.Join(d.dir, fmt.Sprintf("iod%d", daemon), fmt.Sprintf("%016x.stripe", f.Handle()))
	sf, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := sf.ReadAt(one[:], 0); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := sf.WriteAt(one[:], 0); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}

	if _, _, err := b.op(ctx, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.check(0, 1); err == nil || !strings.Contains(err.Error(), "stream byte 0 ") {
		t.Fatalf("corrupt stripe passed the check (err %v)", err)
	}
}

// TestMetaCheckCatchesWrongHandle: a lookup answering another file's
// handle must fail the check.
func TestMetaCheckCatchesWrongHandle(t *testing.T) {
	_, b, _ := bindSpec(t, "meta-mix")
	ctx := context.Background()
	for i := 0; i < 2*mixPeriod; i++ {
		if _, _, err := b.op(ctx, 1, i); err != nil {
			t.Fatal(err)
		}
		if err := b.check(1, i); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	st := &b.(*metaBound).ranks[1]
	st.got = st.handles[0] ^ st.handles[1]
	if err := b.check(1, 2*mixPeriod-1); err == nil {
		t.Fatal("a wrong handle passed the check")
	}
}

// TestFlashVerifyCatchesStaleImage: the read-back must tell which of a
// rank's two images was written last.
func TestFlashVerifyCatchesStaleImage(t *testing.T) {
	_, b, _ := bindSpec(t, "flash-write")
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		for r := 0; r < numRanks; r++ {
			if _, _, err := b.op(ctx, r, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.verify(ctx, []int{1, 1}); err != nil {
		t.Fatalf("true final image failed: %v", err)
	}
	if err := b.verify(ctx, []int{1, 0}); err == nil {
		t.Fatal("a stale image passed the read-back check")
	}
}

// TestPredictionsMatchPaperArithmetic pins the closed-form counts: 384
// FLASH file regions make 6 list batches of 64, each split over 2
// daemons; 4096 cyclic regions make 64 batches, each split likewise.
func TestPredictionsMatchPaperArithmetic(t *testing.T) {
	for _, tc := range []struct {
		name string
		want counts
	}{
		{"flash-write", counts{requests: 12, regions: 384}},
		{"cyclic-read", counts{requests: 128, regions: 4096}},
		{"meta-mix", counts{requests: 1}},
	} {
		sp, err := newSpec(tc.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < numRanks; r++ {
			if got := sp.predict(r); got != tc.want {
				t.Errorf("%s rank %d: predicted %+v, want %+v", tc.name, r, got, tc.want)
			}
		}
	}
}

func TestStoreProbeKeepsInterfaces(t *testing.T) {
	d, err := store.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := checkSameInterfaces(d, timedDir{d, &storeProbe{}}); err != nil {
		t.Fatal(err)
	}
	if err := checkSameInterfaces(d, struct{ store.Store }{d}); err == nil {
		t.Fatal("a wrapper hiding the vectored interfaces passed")
	}
}

func frame(tag uint32, body int) []byte {
	b := make([]byte, wire.HeaderSize+body)
	copy(b, wireMagic)
	b[20], b[21], b[22], b[23] = byte(body>>24), byte(body>>16), byte(body>>8), byte(body)
	b[24], b[25], b[26], b[27] = byte(tag>>24), byte(tag>>16), byte(tag>>8), byte(tag)
	return b
}

func TestFrameParser(t *testing.T) {
	stream := bytes.Join([][]byte{frame(1, 5), frame(2, 0), frame(3, 100)}, nil)
	for _, chunk := range []int{1, 7, 28, 33, len(stream)} {
		var f frameParser
		var events []string
		for p := stream; len(p) > 0; {
			n := min(chunk, len(p))
			f.feed(p[:n],
				func(tag uint32) { events = append(events, fmt.Sprint("start", tag)) },
				func(tag uint32) { events = append(events, fmt.Sprint("end", tag)) })
			p = p[n:]
		}
		if got := strings.Join(events, " "); got != "start1 end1 start2 end2 start3 end3" {
			t.Errorf("chunk %d: %s", chunk, got)
		}
	}

	// A body sent through the raw descriptor is invisible; the next
	// header ends it, while a zero tail still counts as body.
	var f frameParser
	var ends []uint32
	end := func(tag uint32) { ends = append(ends, tag) }
	f.feed(frame(4, 10)[:wire.HeaderSize], nil, end)
	f.afterRaw = true
	f.feed(make([]byte, 4), nil, end)
	f.afterRaw = true
	f.feed(frame(5, 0), nil, end)
	if fmt.Sprint(ends) != "[4 5]" {
		t.Fatalf("ends %v", ends)
	}
}

func TestCovered(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	calls := []interval{{at(5), at(8)}, {at(1), at(3)}, {at(2), at(4)}, {at(9), at(20)}}
	if got := covered(calls, at(0), at(10)); got != 7*time.Millisecond {
		t.Fatalf("covered %v, want 7ms", got)
	}
}

func TestQuantile(t *testing.T) {
	var s []float64
	for i := 1000; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if v, _ := quantile(s, 0.5); v != 500 {
		t.Errorf("p50 %v", v)
	}
	if v, ok := quantile(s, 0.99); v != 990 || !ok {
		t.Errorf("p99 %v ok %v", v, ok)
	}
	if _, ok := quantile(s[:999], 0.99); ok {
		t.Error("p99 of 999 samples has fewer than 10 beyond it")
	}
}

func TestStartDeploymentFailsCleanly(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err := startDeployment(filepath.Join(f, "sub"), nil); err == nil || d != nil {
		t.Fatalf("deployment under a regular file: %v, %v", d, err)
	}
}

// TestSteadyStatsIgnoreOneBadThird: a stretch of interference in one
// third of the run does not set the reported median or rate.
func TestSteadyStatsIgnoreOneBadThird(t *testing.T) {
	var lat []float64
	for i := 0; i < 3000; i++ {
		v := 1.0
		if i >= 2000 {
			v = 5
		}
		lat = append(lat, v)
	}
	if v, ok := steadyQuantile(lat, 0.5); v != 1 || !ok {
		t.Errorf("p50 %v ok %v", v, ok)
	}
	ranks := make([][]float64, numRanks)
	for r := range ranks {
		ranks[r] = lat
	}
	if got, want := throughput(ranks, 10), float64(numRanks)*1000; got != want {
		t.Errorf("throughput %v, want %v", got, want)
	}

	// Nor do stalls scattered through the run, if they hit fewer than
	// half of the rate windows.
	lat = nil
	for i := 0; i < 3000; i++ {
		v := 1.0
		if i%30 == 7 {
			v = 50
		}
		lat = append(lat, v)
	}
	for r := range ranks {
		ranks[r] = lat
	}
	if got, want := throughput(ranks, 10), float64(numRanks)*1000; got != want {
		t.Errorf("throughput with stalls %v, want %v", got, want)
	}
}

// TestPhaseLatenciesMergeRanks: the merged latencies follow completion
// order across ranks, and each rank's keep the order it ran them.
func TestPhaseLatenciesMergeRanks(t *testing.T) {
	ph := &phase{ranks: [][]sample{
		{{end: 1, class: classMain, ms: 1}, {end: 4, class: classLookup, ms: 4}},
		{{end: 2, class: classLookup, ms: 2}, {end: 3, class: classMain, ms: 3}, {end: 5, class: classMain, ms: 5}},
	}}
	if got := fmt.Sprint(ph.latencies(-1)); got != "[1 2 3 4 5]" {
		t.Errorf("all classes: %s", got)
	}
	if got := fmt.Sprint(ph.latencies(classMain)); got != "[1 3 5]" {
		t.Errorf("main class: %s", got)
	}
	if got := fmt.Sprint(ph.rankLatencies()); got != "[[1 4] [2 3 5]]" {
		t.Errorf("per rank: %s", got)
	}
}
