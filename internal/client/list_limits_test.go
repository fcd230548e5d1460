package client_test

// List I/O at the edges of its cost model: a transfer whose payload
// passes the wire's body limit, and memory lists whose piece count
// grows while the bytes moved stay fixed.

import (
	"bytes"
	"runtime"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/ioseg"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// TestListOverBodyLimitRoundTrip writes and reads back 33 regions of
// 2 MiB with 1 KiB gaps on one daemon: 66 MiB for one server, more than
// one message body may carry, so the planner must split the request.
func TestListOverBodyLimitRoundTrip(t *testing.T) {
	const unit = 2 << 20
	_, fs := startCluster(t, 1)
	f, err := fs.Create("over-limit.dat", striping.Config{PCount: 1, StripeSize: unit})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var file ioseg.List
	for i := int64(0); i < 33; i++ {
		file = append(file, ioseg.Segment{Offset: i * (unit + 1024), Length: unit})
	}
	if file.TotalLength() <= wire.MaxBodyLen {
		t.Fatalf("payload %d B fits one body; the test needs more", file.TotalLength())
	}
	arena := make([]byte, file.TotalLength())
	for i := range arena {
		arena[i] = byte(i*7 + i>>20)
	}
	mem := ioseg.List{{Offset: 0, Length: int64(len(arena))}}
	if err := f.WriteList(arena, mem, file, client.ListOptions{}); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(arena))
	if err := f.ReadList(got, mem, file, client.ListOptions{}); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, arena) {
		t.Fatal("read-back differs from the written arena")
	}
}

// allocBytesPerCall returns the heap bytes one call of fn allocates,
// averaged over calls after a warm-up that fills the buffer pool.
func allocBytesPerCall(t *testing.T, fn func() error) int64 {
	t.Helper()
	const warm, calls = 3, 10
	for i := 0; i < warm; i++ {
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / calls
}

// TestListAllocsIndependentOfMemPieces pins "no per-piece allocation":
// a steady-state WriteList and ReadList moving the same 512 KiB through
// 4,096 and then 65,536 memory pieces (the latter of 8 B, the FLASH
// shape) allocate the same bytes per call, within 64 KiB of noise.
func TestListAllocsIndependentOfMemPieces(t *testing.T) {
	const total = 512 << 10
	_, fs := startCluster(t, 4)
	f, err := fs.Create("pieces.dat", striping.Config{PCount: 4, StripeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var file ioseg.List
	for off := int64(0); off < 2*total; off += 8192 {
		file = append(file, ioseg.Segment{Offset: off, Length: 4096})
	}
	var write, read [2]int64
	for i, pieces := range []int64{4096, 65536} {
		mem, arenaLen := fragmentedMem(total, total/pieces, 8)
		arena := make([]byte, arenaLen)
		for k := range arena {
			arena[k] = byte(k)
		}
		write[i] = allocBytesPerCall(t, func() error {
			return f.WriteList(arena, mem, file, client.ListOptions{})
		})
		read[i] = allocBytesPerCall(t, func() error {
			return f.ReadList(arena, mem, file, client.ListOptions{})
		})
	}
	t.Logf("bytes per call at 4,096 / 65,536 pieces: write %d / %d, read %d / %d", write[0], write[1], read[0], read[1])
	for _, d := range []struct {
		name string
		b    [2]int64
	}{{"WriteList", write}, {"ReadList", read}} {
		if diff := d.b[1] - d.b[0]; diff >= 64<<10 || diff <= -64<<10 {
			t.Errorf("%s allocates %d B per call at 65,536 pieces, %d B at 4,096", d.name, d.b[1], d.b[0])
		}
	}
}
