package wire

import "testing"

// TestBufPoolParksWriteWindow pins the pool depth the pipelined list
// write needs: 48 bodies of the 256 KiB class (2 ranks × 12 requests ×
// client and daemon body) put back and got again are all reused, so a
// steady-state op allocates none of them.
func TestBufPoolParksWriteWindow(t *testing.T) {
	const live, size = 48, 131652 // a 32 × 4 KiB list write body
	bufs := make([][]byte, live)
	allocs := testing.AllocsPerRun(10, func() {
		for i := range bufs {
			bufs[i] = GetBuf(size)
		}
		for _, b := range bufs {
			PutBuf(b)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per round of %d gets, want 0", allocs, live)
	}
}

// TestBufPoolParkedBound checks the per-class caps against the rule
// (classBudget bytes, 4 to 64 buffers) and their sum against the
// documented worst case.
func TestBufPoolParkedBound(t *testing.T) {
	var total int64
	for shift := minBufShift; shift <= maxBufShift; shift++ {
		n := cap(bufClasses[shift])
		want := classBudget >> shift
		switch {
		case want > 64:
			want = 64
		case want < 4:
			want = 4
		}
		if n != want {
			t.Errorf("class %d B parks %d buffers, want %d", 1<<shift, n, want)
		}
		total += int64(n) << shift
	}
	if total != maxParkedBytes {
		t.Fatalf("worst-case parked bytes = %d, documented %d", total, maxParkedBytes)
	}
	if c := cap(bufClasses[shiftFor(256<<10)]); c != 64 {
		t.Fatalf("256 KiB class parks %d buffers, want 64", c)
	}
}
