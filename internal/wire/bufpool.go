package wire

import "sync/atomic"

// Message body buffer pooling. The I/O hot path reads and writes one
// framed message per request; without pooling every message allocates
// its body (and the write path a header+body frame), so steady-state
// list I/O churns the garbage collector in proportion to throughput.
//
// Buffers are kept in power-of-two size classes backed by buffered
// channels rather than sync.Pool: a channel free list never allocates
// on Get/Put (sync.Pool boxes the slice header on every Put), gives a
// hard bound on parked memory per class (one byte budget, classBudget,
// below), and needs no GC integration.
// Misses simply allocate and surplus Puts are dropped, so the pool is
// always safe to bypass.
//
// Ownership contract: PutBuf may only be called by code that owns the
// buffer outright — nothing else may retain a reference. Dropping a
// pooled buffer without PutBuf is always safe (the GC reclaims it).

const (
	minBufShift = 9  // 512 B: below this, pooling costs more than it saves
	maxBufShift = 26 // 64 MiB == MaxBodyLen
)

// classBudget is the parked-byte budget of one size class: a class
// parks classBudget / size buffers, capped at 64 and never fewer than
// 4. It is sized for the pipelined list-write window. A 32 × 4 KiB list
// write body is 131,652 B and lands in the 256 KiB class; a process
// holding two client ranks and the daemons they talk to keeps up to
// 2 ranks × 12 requests × (client body + daemon body) = 48 such bodies
// live at once, so that class must park at least 48 buffers or the
// surplus allocates and zeroes a fresh 256 KiB per op. 16 MiB parks 64
// in every class up to 256 KiB, then halves the count per class up to
// 4 MiB; the 4-buffer floor keeps large transfers reusable.
const classBudget = 16 << 20

// maxParkedBytes is the worst case the pool can park, summed over all
// classes: 64 buffers of each class from 512 B to 256 KiB (33,521,664
// B), 16 MiB in each of the 512 KiB, 1, 2 and 4 MiB classes, and 4 of
// each class from 8 to 64 MiB (503,316,480 B). The class-count tiers
// this budget replaced (64 up to 64 KiB, 16 up to 1 MiB, 4 above)
// parked at most 568,295,424 B.
const maxParkedBytes = 603_947_008

// classCap returns how many buffers the class of 1<<shift bytes parks.
func classCap(shift int) int {
	return min(max(classBudget>>shift, 4), 64)
}

// bufClasses holds one free list per power-of-two size class, each
// parking up to classCap buffers.
var bufClasses [maxBufShift + 1]chan []byte

func init() {
	for shift := minBufShift; shift <= maxBufShift; shift++ {
		bufClasses[shift] = make(chan []byte, classCap(shift))
	}
}

// shiftFor returns the smallest class whose buffers hold n bytes.
func shiftFor(n int) int {
	shift := minBufShift
	for 1<<shift < n {
		shift++
	}
	return shift
}

// bufGets and bufPuts count pool traffic: buffers handed out by GetBuf
// and buffers returned through PutBuf (whether or not they were parked
// in a class). Tests use the deltas to prove ownership discipline —
// e.g. that an abandoned call's response body still reaches PutBuf.
var bufGets, bufPuts atomic.Int64

// BufStats reports cumulative GetBuf/PutBuf call counts.
func BufStats() (gets, puts int64) {
	return bufGets.Load(), bufPuts.Load()
}

// GetBuf returns a buffer of length n, reusing a pooled buffer when one
// is available. n == 0 returns nil.
func GetBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	bufGets.Add(1)
	if n > 1<<maxBufShift {
		return make([]byte, n)
	}
	shift := shiftFor(n)
	select {
	case b := <-bufClasses[shift]:
		return b[:n]
	default:
		return make([]byte, n, 1<<shift)
	}
}

// PutBuf returns a buffer to the pool. The caller must own b outright;
// no other reference to its backing array may remain live. Buffers too
// small to pool and surplus buffers in a full class are dropped.
func PutBuf(b []byte) {
	c := cap(b)
	if c == 0 {
		return
	}
	bufPuts.Add(1)
	if c < 1<<minBufShift {
		return
	}
	// File the buffer under the largest class it can fully serve, so a
	// foreign buffer with an off-class capacity is still reusable.
	shift := minBufShift
	for shift < maxBufShift && 1<<(shift+1) <= c {
		shift++
	}
	select {
	case bufClasses[shift] <- b[:cap(b)]:
	default:
	}
}

// Release returns the message body to the buffer pool and clears it.
// Callers use it on the hot path once they have fully consumed a
// message; see the PutBuf ownership contract.
func (m *Message) Release() {
	PutBuf(m.Body)
	m.Body = nil
}
