package main

// Outside-in tracing for the traced run. Every probe here wraps a
// public surface of one layer — a net.Conn under the pvfsnet framing,
// the listener handed to iod.New, the store.Dir handed to each daemon —
// and times the calls that cross it. Nothing inside the program is
// instrumented; the untraced run uses the bare surfaces.

import (
	"encoding/binary"
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pvfs/internal/ioseg"
	"pvfs/internal/store"
	"pvfs/internal/wire"
)

// frameParser follows the frame boundaries of one direction of a
// pvfsnet byte stream: a wire.HeaderSize header carrying the body
// length and the tag, then the body.
type frameParser struct {
	hdr  [wire.HeaderSize]byte
	nh   int    // header bytes gathered so far
	body int64  // body bytes still to come in the current frame
	tag  uint32 // tag of the current frame
	// afterRaw is set when body bytes went to the socket through its
	// raw descriptor (the daemon's sendfile path) where the parser
	// could not see them.
	afterRaw bool
}

var wireMagic = binary.BigEndian.AppendUint32(nil, wire.Magic)

// feed consumes p, calling start when a frame's header is complete
// and end when its last byte has passed.
func (f *frameParser) feed(p []byte, start, end func(tag uint32)) {
	if f.afterRaw && f.body > 0 && len(p) >= len(wireMagic) && string(p[:len(wireMagic)]) == string(wireMagic) {
		// A new header follows a raw write, so the raw write carried
		// the rest of the body. A sparse zero tail never starts with
		// the magic.
		f.body = 0
		if end != nil {
			end(f.tag)
		}
	}
	f.afterRaw = false
	for len(p) > 0 {
		if f.body > 0 {
			n := int64(len(p))
			if n > f.body {
				n = f.body
			}
			f.body -= n
			p = p[n:]
			if f.body == 0 && end != nil {
				end(f.tag)
			}
			continue
		}
		n := copy(f.hdr[f.nh:], p)
		f.nh += n
		p = p[n:]
		if f.nh < wire.HeaderSize {
			return
		}
		f.nh = 0
		f.tag = binary.BigEndian.Uint32(f.hdr[24:])
		f.body = int64(binary.BigEndian.Uint32(f.hdr[20:]))
		if start != nil {
			start(f.tag)
		}
		if f.body == 0 && end != nil {
			end(f.tag)
		}
	}
}

// interval is one wire call as the client saw it: from the start of
// the write carrying its request header to the read that completed
// its response.
type interval struct{ from, to time.Time }

// wireTotals counts transport work on both ends of the wire.
type wireTotals struct {
	clientWrites   atomic.Int64 // Write calls on client connections
	clientRequests atomic.Int64 // request frames clients sent
	clientBytes    atomic.Int64 // bytes clients wrote and read
	writeBlockedNs atomic.Int64 // time inside Write, clients and daemons
}

// rankProbe collects the wire calls of one rank's connections. A rank
// runs one operation at a time, so every call it records between two
// takes belongs to the operation in between.
type rankProbe struct {
	totals *wireTotals
	mu     sync.Mutex
	calls  []interval
}

// take returns and clears the calls recorded since the last take.
func (r *rankProbe) take() []interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.calls
	r.calls = nil
	return out
}

// wrap is the connection hook installed with client.FS.SetConnWrap.
func (r *rankProbe) wrap(c net.Conn) net.Conn {
	return &clientConn{Conn: c, rank: r, sent: make(map[uint32]time.Time)}
}

// clientConn times the wire calls of one client connection.
type clientConn struct {
	net.Conn
	rank *rankProbe
	in   frameParser // only the read loop feeds it
	out  frameParser // writes are serialized by the transport

	mu   sync.Mutex
	sent map[uint32]time.Time // tag -> request write start
}

func (c *clientConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	c.out.feed(p, func(tag uint32) {
		c.mu.Lock()
		c.sent[tag] = t0
		c.mu.Unlock()
		c.rank.totals.clientRequests.Add(1)
	}, nil)
	n, err := c.Conn.Write(p)
	c.rank.totals.writeBlockedNs.Add(int64(time.Since(t0)))
	c.rank.totals.clientWrites.Add(1)
	c.rank.totals.clientBytes.Add(int64(n))
	return n, err
}

func (c *clientConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.rank.totals.clientBytes.Add(int64(n))
		c.in.feed(p[:n], nil, func(tag uint32) {
			c.mu.Lock()
			t0, ok := c.sent[tag]
			delete(c.sent, tag)
			c.mu.Unlock()
			if ok {
				c.rank.mu.Lock()
				c.rank.calls = append(c.rank.calls, interval{t0, now})
				c.rank.mu.Unlock()
			}
		})
	}
	return n, err
}

// covered returns how much of [from, to] the union of calls covers.
func covered(calls []interval, from, to time.Time) time.Duration {
	sort.Slice(calls, func(i, j int) bool { return calls[i].from.Before(calls[j].from) })
	var sum time.Duration
	var curFrom, curTo time.Time
	open := false
	for _, c := range calls {
		a, b := c.from, c.to
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if !b.After(a) {
			continue
		}
		if open && !a.After(curTo) {
			if b.After(curTo) {
				curTo = b
			}
			continue
		}
		if open {
			sum += curTo.Sub(curFrom)
		}
		curFrom, curTo, open = a, b, true
	}
	if open {
		sum += curTo.Sub(curFrom)
	}
	return sum
}

// iodProbe times requests inside the I/O daemons, from the last byte
// of a request read off the socket to the first byte of its response
// written back.
type iodProbe struct {
	totals    *wireTotals
	mu        sync.Mutex
	residence []float64 // ms
}

// listen wraps the listener handed to iod.New.
func (d *iodProbe) listen(ln net.Listener) net.Listener { return probeListener{ln, d} }

type probeListener struct {
	net.Listener
	d *iodProbe
}

func (l probeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &iodConn{Conn: c, d: l.d, arrived: make(map[uint32]time.Time)}, nil
}

// iodConn is one daemon-side connection.
type iodConn struct {
	net.Conn
	d   *iodProbe
	in  frameParser // only the serving loop reads
	out frameParser // response writes are serialized by the transport

	mu      sync.Mutex
	arrived map[uint32]time.Time // tag -> request's last byte read
}

func (c *iodConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.in.feed(p[:n], nil, func(tag uint32) {
			c.mu.Lock()
			c.arrived[tag] = now
			c.mu.Unlock()
		})
	}
	return n, err
}

func (c *iodConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	c.out.feed(p, func(tag uint32) {
		c.mu.Lock()
		at, ok := c.arrived[tag]
		delete(c.arrived, tag)
		c.mu.Unlock()
		if ok {
			c.d.mu.Lock()
			c.d.residence = append(c.d.residence, ms(t0.Sub(at)))
			c.d.mu.Unlock()
		}
	}, nil)
	n, err := c.Conn.Write(p)
	c.d.totals.writeBlockedNs.Add(int64(time.Since(t0)))
	return n, err
}

// SyscallConn exposes the socket descriptor exactly as the bare
// connection does, so the daemon's sendfile path stays in use.
func (c *iodConn) SyscallConn() (syscall.RawConn, error) {
	sc, ok := c.Conn.(syscall.Conn)
	if !ok {
		return nil, errors.New("perfbench: connection has no descriptor")
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil, err
	}
	return rawConn{rc, c}, nil
}

type rawConn struct {
	syscall.RawConn
	c *iodConn
}

func (r rawConn) Write(f func(fd uintptr) bool) error {
	t0 := time.Now()
	err := r.RawConn.Write(f)
	r.c.d.totals.writeBlockedNs.Add(int64(time.Since(t0)))
	r.c.out.afterRaw = true
	return err
}

// Store methods timed by storeProbe, in report order.
const (
	mReadAt = iota
	mWriteAt
	mReadAtv
	mWriteAtv
	mReadSpanv
	mWriteSpanv
	mReadBatch
	mWriteBatch
	mStreamReader
	nMethods
)

var methodNames = [nMethods]string{
	"ReadAt", "WriteAt", "ReadAtv", "WriteAtv", "ReadSpanv", "WriteSpanv",
	"ReadBatch", "WriteBatch", "StreamReader",
}

// storeProbe counts and times the data calls the daemons make into
// their stores.
type storeProbe struct {
	calls [nMethods]atomic.Int64
	nanos atomic.Int64
}

func (s *storeProbe) done(m int, t0 time.Time) {
	s.calls[m].Add(1)
	s.nanos.Add(int64(time.Since(t0)))
}

// timedDir is a store.Dir behind a storeProbe. It implements exactly
// the optional interfaces store.Dir implements, so the daemon's type
// assertions pick the same datapath as on the bare store;
// checkSameInterfaces enforces that at start-up.
type timedDir struct {
	d *store.Dir
	p *storeProbe
}

func (t timedDir) ReadAt(h uint64, b []byte, off int64) (int, error) {
	defer t.p.done(mReadAt, time.Now())
	return t.d.ReadAt(h, b, off)
}

func (t timedDir) WriteAt(h uint64, b []byte, off int64) (int, error) {
	defer t.p.done(mWriteAt, time.Now())
	return t.d.WriteAt(h, b, off)
}

func (t timedDir) ReadAtv(h uint64, segs ioseg.List, b []byte) (int, error) {
	defer t.p.done(mReadAtv, time.Now())
	return t.d.ReadAtv(h, segs, b)
}

func (t timedDir) WriteAtv(h uint64, segs ioseg.List, b []byte) (int, error) {
	defer t.p.done(mWriteAtv, time.Now())
	return t.d.WriteAtv(h, segs, b)
}

func (t timedDir) ReadSpanv(h uint64, off int64, bufs [][]byte) (int, error) {
	defer t.p.done(mReadSpanv, time.Now())
	return t.d.ReadSpanv(h, off, bufs)
}

func (t timedDir) WriteSpanv(h uint64, off int64, bufs [][]byte) (int, error) {
	defer t.p.done(mWriteSpanv, time.Now())
	return t.d.WriteSpanv(h, off, bufs)
}

func (t timedDir) ReadBatch(h uint64, spans []store.Span) (int, error) {
	defer t.p.done(mReadBatch, time.Now())
	return t.d.ReadBatch(h, spans)
}

func (t timedDir) WriteBatch(h uint64, spans []store.Span) (int, error) {
	defer t.p.done(mWriteBatch, time.Now())
	return t.d.WriteBatch(h, spans)
}

// StreamReader times only the stream's creation; its bytes move
// later, inside the response write, and show up as write time.
func (t timedDir) StreamReader(h uint64, off, n int64) (*store.FileStream, error) {
	defer t.p.done(mStreamReader, time.Now())
	return t.d.StreamReader(h, off, n)
}

func (t timedDir) Size(h uint64) (int64, error)        { return t.d.Size(h) }
func (t timedDir) Truncate(h uint64, size int64) error { return t.d.Truncate(h, size) }
func (t timedDir) Remove(h uint64) error               { return t.d.Remove(h) }
func (t timedDir) Handles() ([]uint64, error)          { return t.d.Handles() }
func (t timedDir) Close() error                        { return t.d.Close() }
func (t timedDir) IOStats() store.IOStats              { return t.d.IOStats() }

// optionalInterfaces reports which optional store interfaces s has.
func optionalInterfaces(s store.Store) [8]bool {
	_, vec := s.(store.VectorIO)
	_, span := s.(store.SpanIO)
	_, batch := s.(store.BatchIO)
	_, stream := s.(store.FileStreamer)
	_, syncer := s.(store.Syncer)
	_, iostats := s.(store.IOStatsProvider)
	_, cache := s.(store.CacheStatsProvider)
	_, sizer := s.(store.Sizer)
	return [8]bool{vec, span, batch, stream, syncer, iostats, cache, sizer}
}

// checkSameInterfaces fails when a wrapper would steer the daemon onto
// another datapath than the store it wraps.
func checkSameInterfaces(bare, wrapped store.Store) error {
	if optionalInterfaces(bare) != optionalInterfaces(wrapped) {
		return errors.New("perfbench: store probe changes the optional store interfaces")
	}
	return nil
}
