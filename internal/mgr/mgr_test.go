package mgr_test

import (
	"encoding/binary"
	"net"
	"testing"

	"pvfs/internal/iod"
	"pvfs/internal/meta"
	"pvfs/internal/mgr"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/store"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

func startMgr(t *testing.T, iods []string) (*mgr.Server, *pvfsnet.Conn) {
	t.Helper()
	srv, err := mgr.Listen("127.0.0.1:0", iods, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := pvfsnet.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func fourIODs() []string {
	return []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001", "10.0.0.4:7001"}
}

func create(t *testing.T, c *pvfsnet.Conn, name string, cfg striping.Config) wire.FileInfo {
	t.Helper()
	req := wire.CreateReq{Name: name, Striping: cfg}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TCreate}, Body: req.Marshal()})
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	var info wire.FileInfo
	if err := info.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	return info
}

func TestCreateDefaults(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	info := create(t, c, "a", striping.Config{})
	if info.Striping.PCount != 4 {
		t.Fatalf("pcount = %d, want all 4", info.Striping.PCount)
	}
	if info.Striping.StripeSize != striping.DefaultStripeSize {
		t.Fatalf("ssize = %d", info.Striping.StripeSize)
	}
	if len(info.IODAddrs) != 4 || info.IODAddrs[0] != "10.0.0.1:7001" {
		t.Fatalf("iods = %v", info.IODAddrs)
	}
	if info.Handle == 0 {
		t.Fatal("zero handle")
	}
}

func TestCreateWithBaseRotatesAddrs(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	info := create(t, c, "rot", striping.Config{Base: 2, PCount: 3, StripeSize: 4096})
	want := []string{"10.0.0.3:7001", "10.0.0.4:7001", "10.0.0.1:7001"}
	if len(info.IODAddrs) != 3 {
		t.Fatalf("iods = %v", info.IODAddrs)
	}
	for i, a := range want {
		if info.IODAddrs[i] != a {
			t.Fatalf("iods = %v, want %v", info.IODAddrs, want)
		}
	}
}

func TestCreateDuplicateAndInvalid(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	create(t, c, "dup", striping.Config{})
	req := wire.CreateReq{Name: "dup"}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TCreate}, Body: req.Marshal()})
	if err == nil {
		t.Fatal("duplicate create accepted")
	}
	if resp.Status != wire.StatusExists {
		t.Fatalf("status = %v", resp.Status)
	}
	// Empty name.
	req = wire.CreateReq{Name: ""}
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TCreate}, Body: req.Marshal()}); err == nil {
		t.Fatal("empty name accepted")
	}
	// More servers than exist.
	req = wire.CreateReq{Name: "big", Striping: striping.Config{PCount: 9}}
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TCreate}, Body: req.Marshal()}); err == nil {
		t.Fatal("pcount 9 of 4 accepted")
	}
	// Base beyond server table.
	req = wire.CreateReq{Name: "base", Striping: striping.Config{Base: 7, PCount: 2}}
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TCreate}, Body: req.Marshal()}); err == nil {
		t.Fatal("base 7 of 4 accepted")
	}
}

func TestOpenStatRemove(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	created := create(t, c, "f", striping.Config{})
	nameReq := wire.NameReq{Name: "f"}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TOpen}, Body: nameReq.Marshal()})
	if err != nil {
		t.Fatal(err)
	}
	var info wire.FileInfo
	if err := info.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	if info.Handle != created.Handle {
		t.Fatalf("open handle %d != create handle %d", info.Handle, created.Handle)
	}
	// Stat behaves like open.
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TStat}, Body: nameReq.Marshal()}); err != nil {
		t.Fatal(err)
	}
	// Remove, then open must fail.
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TRemove}, Body: nameReq.Marshal()}); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Call(wire.Message{Header: wire.Header{Type: wire.TOpen}, Body: nameReq.Marshal()})
	if err == nil {
		t.Fatal("open after remove succeeded")
	}
	if resp.Status != wire.StatusNotFound {
		t.Fatalf("status = %v", resp.Status)
	}
	// Removing again fails with not-found.
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TRemove}, Body: nameReq.Marshal()}); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestListDirSorted(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	for _, n := range []string{"zeta", "alpha", "mid"} {
		create(t, c, n, striping.Config{})
	}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TListDir}})
	if err != nil {
		t.Fatal(err)
	}
	var ld wire.ListDirResp
	if err := ld.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	if len(ld.Names) != 3 {
		t.Fatalf("names = %v", ld.Names)
	}
	for i := range want {
		if ld.Names[i] != want[i] {
			t.Fatalf("names = %v, want %v", ld.Names, want)
		}
	}
}

func TestSetSizeMonotonic(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	info := create(t, c, "sz", striping.Config{})
	set := func(size int64) {
		req := wire.SetSizeReq{Handle: info.Handle, Size: size}
		if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TSetSize}, Body: req.Marshal()}); err != nil {
			t.Fatal(err)
		}
	}
	set(1000)
	set(500) // shrink attempts are ignored (size is a high-water mark)
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TOpen}, Body: (&wire.NameReq{Name: "sz"}).Marshal()})
	if err != nil {
		t.Fatal(err)
	}
	var got wire.FileInfo
	if err := got.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	if got.Size != 1000 {
		t.Fatalf("size = %d, want 1000", got.Size)
	}
	// Unknown handle.
	req := wire.SetSizeReq{Handle: 9999, Size: 1}
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TSetSize}, Body: req.Marshal()}); err == nil {
		t.Fatal("setsize on unknown handle succeeded")
	}
}

func TestUniqueHandles(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		info := create(t, c, string(rune('a'+i%26))+string(rune('0'+i/26)), striping.Config{})
		if seen[info.Handle] {
			t.Fatalf("handle %d reused", info.Handle)
		}
		seen[info.Handle] = true
	}
}

func TestMalformedBodies(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	for _, typ := range []wire.MsgType{wire.TCreate, wire.TOpen, wire.TRemove, wire.TSetSize} {
		resp, err := c.Call(wire.Message{Header: wire.Header{Type: typ}, Body: []byte{0xFF}})
		if err == nil {
			t.Errorf("%v: malformed body accepted", typ)
		}
		if resp.Status == wire.StatusOK {
			t.Errorf("%v: OK status for malformed body", typ)
		}
	}
	// I/O request types are invalid at the manager.
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TRead}}); err == nil {
		t.Error("manager accepted an I/O request")
	}
}

// startMaster serves a bare one-replica master (meta.Node) on its own
// listener, the shape of a standalone pvfs-mgr -replica process.
func startMaster(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	node, err := meta.NewNode(meta.NodeOptions{
		ID: 0, Peers: []string{addr},
		Bootstrap: &wire.ShardMap{Epoch: 1, Masters: []string{addr}, Shards: []string{addr}, IODs: fourIODs()},
	})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	srv := pvfsnet.NewServer(ln, node.Handle, nil)
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	return addr
}

// oldStridedBody hand-encodes a well-formed body of the retired
// strided family (start, stride, blocklen, count, striping base,
// pcount, stripe size, relative index, then the write payload), so
// the daemon can only be refusing the opcode, not the body.
func oldStridedBody(data []byte) []byte {
	b := make([]byte, 0, 52+len(data))
	for _, v := range []int64{0, 64, 8, 4} {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	b = binary.BigEndian.AppendUint32(b, 0)
	b = binary.BigEndian.AppendUint32(b, 1)
	b = binary.BigEndian.AppendUint64(b, 4096)
	b = binary.BigEndian.AppendUint32(b, 0)
	return append(b, data...)
}

// TestRetiredOpcodesAnswerInvalid pins the retired opcodes: the
// strided request family at an I/O daemon, and the single-record
// propose at a master replica and through the manager's single
// listener, are each answered StatusInvalid, and the connection keeps
// serving afterwards.
func TestRetiredOpcodesAnswerInvalid(t *testing.T) {
	iodSrv, err := iod.Listen("127.0.0.1:0", store.NewMem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { iodSrv.Close() })
	mgrSrv, _ := startMgr(t, fourIODs())
	masterAddr := startMaster(t)
	proposeBody := (&wire.MetaRecord{Op: wire.TPing}).Marshal()

	cases := []struct {
		name string
		addr string
		typ  wire.MsgType
		body []byte
	}{
		{"iod/readstrided", iodSrv.Addr(), wire.TRetiredReadStrided, oldStridedBody(nil)},
		{"iod/writestrided", iodSrv.Addr(), wire.TRetiredWriteStrided, oldStridedBody(make([]byte, 32))},
		{"master/metapropose", masterAddr, wire.TRetiredMetaPropose, proposeBody},
		{"mgr/metapropose", mgrSrv.Addr(), wire.TRetiredMetaPropose, proposeBody},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := pvfsnet.Dial(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			resp, err := c.Call(wire.Message{Header: wire.Header{Type: tc.typ, Handle: 1}, Body: tc.body})
			if err == nil || resp.Status != wire.StatusInvalid {
				t.Fatalf("%v: status %v (err %v), want %v", tc.typ, resp.Status, err, wire.StatusInvalid)
			}
			if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TPing}}); err != nil {
				t.Fatalf("ping after %v: %v", tc.typ, err)
			}
		})
	}
}
