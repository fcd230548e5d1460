package client

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pvfs/internal/ioseg"
)

// refCheckLists is the multi-pass validation checkLists replaced:
// validate mem, validate file, compare totals, then bound mem by the
// arena. checkLists must return exactly its errors.
func refCheckLists(arena []byte, mem, file ioseg.List) error {
	if err := mem.Validate(); err != nil {
		return fmt.Errorf("pvfs: memory list: %w", err)
	}
	if err := file.Validate(); err != nil {
		return fmt.Errorf("pvfs: file list: %w", err)
	}
	if mem.TotalLength() != file.TotalLength() {
		return fmt.Errorf("pvfs: memory list covers %d bytes, file list %d",
			mem.TotalLength(), file.TotalLength())
	}
	for i, s := range mem {
		if s.End() > int64(len(arena)) {
			return fmt.Errorf("pvfs: memory region %d (%v) outside buffer of %d bytes", i, s, len(arena))
		}
	}
	return nil
}

// TestCheckListsMatchesReference drives the one-pass checks with lists
// that mix every fault — negative offsets and lengths, int64 overflow,
// regions past the arena, unequal totals — and requires the reference's
// error text (or its success and the shared total) for each.
func TestCheckListsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	randSeg := func(arenaLen int64) ioseg.Segment {
		switch r.Intn(24) {
		case 0:
			return ioseg.Segment{Offset: -1 - r.Int63n(10), Length: r.Int63n(10)}
		case 1:
			return ioseg.Segment{Offset: r.Int63n(10), Length: -1 - r.Int63n(10)}
		case 2:
			return ioseg.Segment{Offset: math.MaxInt64 - r.Int63n(4), Length: 5 + r.Int63n(4)}
		case 3:
			return ioseg.Segment{Offset: arenaLen - r.Int63n(4), Length: r.Int63n(8)}
		case 4:
			return ioseg.Segment{Offset: math.MaxInt64 - 8, Length: 8}
		}
		off := r.Int63n(arenaLen + 1)
		return ioseg.Segment{Offset: off, Length: r.Int63n(arenaLen - off + 1)}
	}
	for i := 0; i < 20000; i++ {
		arenaLen := r.Int63n(64)
		arena := make([]byte, arenaLen)
		var mem, file ioseg.List
		for k := r.Intn(6); k > 0; k-- {
			mem = append(mem, randSeg(arenaLen))
		}
		if r.Intn(2) == 0 {
			// Usually equal totals, so the arena check gets its turn.
			for _, s := range mem {
				file = append(file, ioseg.Segment{Offset: int64(r.Intn(100)), Length: s.Length})
			}
			if len(file) > 0 && r.Intn(4) == 0 {
				file[r.Intn(len(file))] = randSeg(100)
			}
		} else {
			for k := r.Intn(6); k > 0; k-- {
				file = append(file, randSeg(100))
			}
		}
		want := refCheckLists(arena, mem, file)
		total, err := checkLists(arena, mem, file)
		switch {
		case want == nil && err == nil:
			if total != mem.TotalLength() {
				t.Fatalf("mem %v file %v: total %d, want %d", mem, file, total, mem.TotalLength())
			}
		case want == nil || err == nil || err.Error() != want.Error():
			t.Fatalf("arena %d mem %v file %v:\n got  %v\n want %v", arenaLen, mem, file, err, want)
		}
	}
}
