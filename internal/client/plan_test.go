package client

// White-box tests of list request planning: the payload cut at the
// wire body limit and the memory cursor each piece records.

import (
	"testing"

	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// planFile is a File with only the striping planList reads.
func planFile(cfg striping.Config) *File {
	return &File{info: wire.FileInfo{Striping: cfg}}
}

// checkPlan verifies that the plan's requests tile its pieces, that
// no request's payload passes maxListPayload, and that each piece's
// cursor addresses stream position streamPos[k] of mem.
func checkPlan(t *testing.T, ps *planServer, mem ioseg.List, streamPos []int64) {
	t.Helper()
	next := 0
	for i, r := range ps.reqs {
		if r.lo != next || r.hi <= r.lo || r.hi-r.lo > wire.MaxRegionsPerRequest {
			t.Fatalf("request %d covers pieces [%d,%d), want a non-empty range from %d", i, r.lo, r.hi, next)
		}
		var n int64
		for _, s := range ps.phys[r.lo:r.hi] {
			n += s.Length
		}
		if n != r.bytes || n > maxListPayload {
			t.Fatalf("request %d carries %d bytes (recorded %d), limit %d", i, n, r.bytes, maxListPayload)
		}
		next = r.hi
	}
	if next != len(ps.phys) || len(ps.mem) != len(ps.phys) || len(streamPos) != len(ps.phys) {
		t.Fatalf("%d pieces, %d cursors, %d in requests, want %d", len(ps.phys), len(ps.mem), next, len(streamPos))
	}
	for k, pos := range streamPos {
		var want memio.Cursor
		want.Skip(mem, pos)
		if ps.mem[k] != want {
			t.Fatalf("piece %d cursor %+v, want %+v (stream %d)", k, ps.mem[k], want, pos)
		}
	}
}

// pieceStreams returns, per server, the stream position of each
// striping piece of file, in stream order.
func pieceStreams(cfg striping.Config, file ioseg.List) map[int][]int64 {
	var stream int64
	out := make(map[int][]int64)
	for _, s := range file {
		cfg.SplitFunc(s, func(p striping.Piece) {
			out[p.Server] = append(out[p.Server], stream+(p.Logical.Offset-s.Offset))
		})
		stream += s.Length
	}
	return out
}

// TestPlanListCutsAtBodyLimit: 33 regions of 2 MiB with 1 KiB gaps on
// one server (each split across two stripe units) pass wire.MaxBodyLen
// together; the plan cuts the request before its payload would.
func TestPlanListCutsAtBodyLimit(t *testing.T) {
	const unit = 2 << 20
	cfg := striping.Config{PCount: 1, StripeSize: unit}
	var file ioseg.List
	for i := int64(0); i < 33; i++ {
		file = append(file, ioseg.Segment{Offset: i * (unit + 1024), Length: unit})
	}
	mem := ioseg.List{{Offset: 0, Length: 33 * unit}}
	plans := planFile(cfg).planList(file, mem, wire.MaxRegionsPerRequest)
	if len(plans) != 1 {
		t.Fatalf("%d servers planned, want 1", len(plans))
	}
	ps := plans[0]
	checkPlan(t, ps, mem, pieceStreams(cfg, file)[0])
	if len(ps.reqs) != 2 || ps.reqs[0].bytes+ps.reqs[1].bytes != 33*unit {
		t.Fatalf("requests %+v, want two carrying %d bytes", ps.reqs, 33*unit)
	}
}

// TestPlanListSplitsOversizedPiece: a stripe unit larger than the
// payload limit yields pieces that are split at the limit, one per
// request, each with its own cursor into a fragmented memory list.
func TestPlanListSplitsOversizedPiece(t *testing.T) {
	total := 2*maxListPayload + 5
	f := planFile(striping.Config{PCount: 2, StripeSize: 1 << 40})
	file := ioseg.List{{Offset: 100, Length: total}}
	mem := ioseg.List{{Offset: 0, Length: 3}, {Offset: 10, Length: 0}, {Offset: 10, Length: total - 3}}
	plans := f.planList(file, mem, wire.MaxRegionsPerRequest)
	if len(plans) != 1 {
		t.Fatalf("%d servers planned, want 1", len(plans))
	}
	ps := plans[0]
	checkPlan(t, ps, mem, []int64{0, maxListPayload, 2 * maxListPayload})
	if len(ps.reqs) != 3 || ps.phys[1].Offset != 100+maxListPayload || ps.phys[2].Length != 5 {
		t.Fatalf("pieces %v in requests %+v, want three cut at the limit", ps.phys, ps.reqs)
	}
}

// TestPlanListCursorsFollowStream: pieces interleave across servers,
// yet each records the memory position of its own stream bytes.
func TestPlanListCursorsFollowStream(t *testing.T) {
	f := planFile(striping.Config{PCount: 3, StripeSize: 16})
	file := ioseg.List{{Offset: 5, Length: 40}, {Offset: 60, Length: 0}, {Offset: 70, Length: 30}}
	var mem ioseg.List
	for i := int64(0); i < 70; i += 7 {
		mem = append(mem, ioseg.Segment{Offset: 2 * i, Length: 7}, ioseg.Segment{Offset: 1, Length: 0})
	}
	plans := f.planList(file, mem, 2)
	want := pieceStreams(f.info.Striping, file)
	if len(plans) != len(want) {
		t.Fatalf("%d servers planned, want %d", len(plans), len(want))
	}
	for _, ps := range plans {
		checkPlan(t, ps, mem, want[ps.rel])
	}
}
