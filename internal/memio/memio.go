// Package memio implements the client-side memory engine for
// noncontiguous I/O: gathering noncontiguous memory regions into a
// contiguous wire stream, scattering a wire stream back into memory,
// and matching a memory region list against a file region list.
//
// The paper's list I/O interface (§3.3) takes parallel memory and file
// region lists whose total lengths must agree. Data travels between
// them in "stream order": the i-th byte of the concatenated memory
// regions corresponds to the i-th byte of the concatenated file
// regions. Match makes that correspondence explicit as maximal pieces
// contiguous in both spaces — the unit the paper's FLASH analysis
// counts when memory fragmentation (8-byte doubles) exceeds file
// fragmentation (4 KiB blocks).
package memio

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pvfs/internal/ioseg"
)

// ErrLengthMismatch reports memory and file lists covering different
// byte counts, which makes the stream correspondence undefined.
var ErrLengthMismatch = errors.New("memio: memory and file lists cover different byte counts")

// Pair is a maximal run of bytes contiguous in both memory and file
// space. Mem.Length == File.Length always holds.
type Pair struct {
	Mem  ioseg.Segment // extent in the client buffer (arena offsets)
	File ioseg.Segment // extent in the file's logical byte space
}

// Match aligns a memory region list with a file region list and
// returns the maximal doubly-contiguous pieces in stream order. The
// piece count is max-fragmentation: a new piece starts whenever either
// list starts a new region. Lists must cover equal byte totals.
func Match(mem, file ioseg.List) ([]Pair, error) {
	if mem.TotalLength() != file.TotalLength() {
		return nil, fmt.Errorf("%w: mem=%d file=%d",
			ErrLengthMismatch, mem.TotalLength(), file.TotalLength())
	}
	est := len(mem)
	if len(file) > est {
		est = len(file)
	}
	pairs := make([]Pair, 0, est)
	mi, fi := 0, 0
	var mOff, fOff int64 // consumed bytes within current mem/file region
	for mi < len(mem) && fi < len(file) {
		m, f := mem[mi], file[fi]
		if m.Empty() {
			mi++
			continue
		}
		if f.Empty() {
			fi++
			continue
		}
		n := m.Length - mOff
		if r := f.Length - fOff; r < n {
			n = r
		}
		pairs = append(pairs, Pair{
			Mem:  ioseg.Segment{Offset: m.Offset + mOff, Length: n},
			File: ioseg.Segment{Offset: f.Offset + fOff, Length: n},
		})
		mOff += n
		fOff += n
		if mOff == m.Length {
			mi, mOff = mi+1, 0
		}
		if fOff == f.Length {
			fi, fOff = fi+1, 0
		}
	}
	// Skip any trailing empty regions.
	for mi < len(mem) && mem[mi].Empty() {
		mi++
	}
	for fi < len(file) && file[fi].Empty() {
		fi++
	}
	if mi != len(mem) || fi != len(file) {
		return nil, fmt.Errorf("memio: internal: unconsumed regions (mem %d/%d, file %d/%d)",
			mi, len(mem), fi, len(file))
	}
	return pairs, nil
}

// MatchCount returns only the number of pairs Match would produce,
// without allocating them. It runs in O(len(mem)+len(file)).
func MatchCount(mem, file ioseg.List) (int, error) {
	if mem.TotalLength() != file.TotalLength() {
		return 0, fmt.Errorf("%w: mem=%d file=%d",
			ErrLengthMismatch, mem.TotalLength(), file.TotalLength())
	}
	count := 0
	mi, fi := 0, 0
	var mOff, fOff int64
	for mi < len(mem) && fi < len(file) {
		if mem[mi].Empty() {
			mi++
			continue
		}
		if file[fi].Empty() {
			fi++
			continue
		}
		n := mem[mi].Length - mOff
		if r := file[fi].Length - fOff; r < n {
			n = r
		}
		count++
		mOff += n
		fOff += n
		if mOff == mem[mi].Length {
			mi, mOff = mi+1, 0
		}
		if fOff == file[fi].Length {
			fi, fOff = fi+1, 0
		}
	}
	return count, nil
}

// Gather copies the listed arena regions, in order, into one
// contiguous buffer (stream order). Regions must lie within the arena.
func Gather(arena []byte, mem ioseg.List) ([]byte, error) {
	out := make([]byte, 0, mem.TotalLength())
	for i, s := range mem {
		if err := checkArena(arena, s); err != nil {
			return nil, fmt.Errorf("memio: gather region %d: %w", i, err)
		}
		out = append(out, arena[s.Offset:s.End()]...)
	}
	return out, nil
}

// Scatter copies the contiguous stream into the listed arena regions
// in order. The stream length must equal the list's total length.
func Scatter(arena []byte, mem ioseg.List, stream []byte) error {
	if int64(len(stream)) != mem.TotalLength() {
		return fmt.Errorf("memio: scatter stream %d bytes, regions cover %d",
			len(stream), mem.TotalLength())
	}
	var pos int64
	for i, s := range mem {
		if err := checkArena(arena, s); err != nil {
			return fmt.Errorf("memio: scatter region %d: %w", i, err)
		}
		copy(arena[s.Offset:s.End()], stream[pos:pos+s.Length])
		pos += s.Length
	}
	return nil
}

// Cursor is a position in the stream of a memory region list: the
// region holding the next stream byte and how far into that region it
// lies; the zero value is the stream's start. It is the zero-copy
// engine of pipelined list and datatype I/O.
// A planner walks the list forward once, recording the cursor at the
// first byte of each request piece; the copy loops later resume from
// those recorded cursors and move the piece's bytes straight between
// the arena and a pooled message body — no prefix index and no staging
// stream is built, and the work per memory region is constant.
//
// Cursor methods take the list as an argument and never validate it:
// callers check up front that every region lies inside the arena and
// that the stream range stays within the list, so the copy loop relies
// on Go's bounds checks alone. A Cursor is a plain value; copies of one
// move independently, so recorded cursors may be used concurrently
// when their byte ranges are disjoint.
type Cursor struct {
	region int   // index of the region holding the next stream byte
	off    int64 // bytes of mem[region] already passed
}

// Skip advances the cursor n stream bytes without copying.
func (c *Cursor) Skip(mem ioseg.List, n int64) {
	i, off := c.region, c.off
	for n > 0 {
		r := mem[i].Length - off
		if n < r {
			off += n
			break
		}
		n -= r
		i, off = i+1, 0
	}
	c.region, c.off = i, off
}

// Gather fills dst with the len(dst) stream bytes at the cursor, read
// from their arena extents, and advances past them (the write
// direction).
func (c *Cursor) Gather(dst, arena []byte, mem ioseg.List) { c.move(arena, mem, dst, false) }

// Scatter copies src to the arena extents of the len(src) stream bytes
// at the cursor and advances past them (the read direction).
func (c *Cursor) Scatter(arena []byte, mem ioseg.List, src []byte) { c.move(arena, mem, src, true) }

// move is the one gather/scatter kernel: it pairs buf, which holds
// stream bytes contiguously, with the arena extents the stream bytes
// at the cursor map to, and copies each pair toward the arena when
// toArena is set and toward buf otherwise. A whole 8-byte region — a
// double in a scientific code's memory layout, the FLASH case — moves
// as one load and one store instead of a runtime.memmove call; other
// pieces use copy.
func (c *Cursor) move(arena []byte, mem ioseg.List, buf []byte, toArena bool) {
	i, off := c.region, c.off
	for d := 0; d < len(buf); {
		s := mem[i]
		if off == 0 && s.Length == 8 && len(buf)-d >= 8 {
			if toArena {
				binary.LittleEndian.PutUint64(arena[s.Offset:], binary.LittleEndian.Uint64(buf[d:]))
			} else {
				binary.LittleEndian.PutUint64(buf[d:], binary.LittleEndian.Uint64(arena[s.Offset:]))
			}
			d += 8
			i++
			continue
		}
		n := min(s.Length-off, int64(len(buf)-d))
		b, a := buf[d:d+int(n)], arena[s.Offset+off:s.Offset+off+n]
		if toArena {
			copy(a, b)
		} else {
			copy(b, a)
		}
		d += int(n)
		if off += n; off == s.Length {
			i, off = i+1, 0
		}
	}
	c.region, c.off = i, off
}

// StreamIndex locates the byte at stream position pos within the
// region list: it returns the region index and the arena/file offset
// of that byte. It reports ok=false when pos is out of range.
func StreamIndex(l ioseg.List, pos int64) (region int, off int64, ok bool) {
	if pos < 0 {
		return 0, 0, false
	}
	for i, s := range l {
		if pos < s.Length {
			return i, s.Offset + pos, true
		}
		pos -= s.Length
	}
	return 0, 0, false
}

// ExtractWindow copies the bytes of regions (clipped to window) from
// src — a buffer holding the file contents of window — into their
// stream positions in dst. It is the data-sieving read inner loop:
// src is the sieve buffer, window its file extent, and dst the packed
// stream. It returns the number of useful bytes copied.
func ExtractWindow(dst []byte, dstStream ioseg.List, src []byte, window ioseg.Segment) (int64, error) {
	if int64(len(src)) < window.Length {
		return 0, fmt.Errorf("memio: window %d bytes, src %d", window.Length, len(src))
	}
	var copied, streamPos int64
	for _, s := range dstStream {
		if c, ok := s.Intersect(window); ok {
			sOff := streamPos + (c.Offset - s.Offset)
			if sOff+c.Length > int64(len(dst)) {
				return copied, fmt.Errorf("memio: stream overflows dst (%d > %d)", sOff+c.Length, len(dst))
			}
			copy(dst[sOff:sOff+c.Length], src[c.Offset-window.Offset:c.End()-window.Offset])
			copied += c.Length
		}
		streamPos += s.Length
	}
	return copied, nil
}

// InjectWindow is the data-sieving write inner loop: it copies stream
// bytes of the regions clipped to window into src (the sieve buffer
// holding window's current file contents), implementing the "modify"
// step of read-modify-write. It returns the number of bytes injected.
func InjectWindow(src []byte, stream []byte, regions ioseg.List, window ioseg.Segment) (int64, error) {
	if int64(len(src)) < window.Length {
		return 0, fmt.Errorf("memio: window %d bytes, buffer %d", window.Length, len(src))
	}
	var injected, streamPos int64
	for _, s := range regions {
		if c, ok := s.Intersect(window); ok {
			sOff := streamPos + (c.Offset - s.Offset)
			if sOff+c.Length > int64(len(stream)) {
				return injected, fmt.Errorf("memio: stream underflow (%d > %d)", sOff+c.Length, len(stream))
			}
			copy(src[c.Offset-window.Offset:c.End()-window.Offset], stream[sOff:sOff+c.Length])
			injected += c.Length
		}
		streamPos += s.Length
	}
	return injected, nil
}

func checkArena(arena []byte, s ioseg.Segment) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.End() > int64(len(arena)) {
		return fmt.Errorf("region %v outside arena of %d bytes", s, len(arena))
	}
	return nil
}
