package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/iod"
	"pvfs/internal/meta"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/store"
	"pvfs/internal/wire"
)

// Deployment shape shared by every workload.
const (
	numIODs    = 2
	numMasters = 3
	numShards  = 2
	numRanks   = 2
)

// deployment is one in-process PVFS: I/O daemons over directory
// stores, a replicated master group and metadata shards, all on
// loopback TCP, plus one client session per rank.
type deployment struct {
	dir     string
	dirs    []*store.Dir
	iods    []*iod.Server
	nodes   []*meta.Node
	shards  []*meta.Shard
	servers []*pvfsnet.Server // master and shard transports
	fss     []*client.FS      // one per rank
	probes  *probes           // nil when untraced
}

// probes is the instrumentation of a traced deployment.
type probes struct {
	wire  wireTotals
	ranks []*rankProbe
	iod   iodProbe
	store storeProbe
}

func newProbes() *probes {
	p := &probes{}
	p.iod.totals = &p.wire
	for r := 0; r < numRanks; r++ {
		p.ranks = append(p.ranks, &rankProbe{totals: &p.wire})
	}
	return p
}

// clientRetry rides out the metadata shards' start-up window, in which
// they answer "unavailable" until they hold their partition.
var clientRetry = client.RetryPolicy{Max: 12, Backoff: 2 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}

// startDeployment brings a deployment up under dir and returns once a
// master leads, every shard serves and every rank is connected.
func startDeployment(dir string, pr *probes) (_ *deployment, err error) {
	d := &deployment{dir: dir, probes: pr}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	var iodAddrs []string
	for i := 0; i < numIODs; i++ {
		ds, err := store.NewDir(filepath.Join(dir, fmt.Sprintf("iod%d", i)))
		if err != nil {
			return nil, err
		}
		d.dirs = append(d.dirs, ds)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		var st store.Store = ds
		if pr != nil {
			st = timedDir{ds, &pr.store}
			if err := checkSameInterfaces(ds, st); err != nil {
				ln.Close()
				return nil, err
			}
			ln = pr.iod.listen(ln)
		}
		srv := iod.New(ln, st, nil)
		d.iods = append(d.iods, srv)
		iodAddrs = append(iodAddrs, srv.Addr())
	}

	masterLns, masterAddrs, err := listenN(numMasters)
	if err != nil {
		return nil, err
	}
	shardLns, shardAddrs, err := listenN(numShards)
	if err != nil {
		closeAll(masterLns)
		return nil, err
	}
	boot := &wire.ShardMap{Epoch: 1, Masters: masterAddrs, Shards: shardAddrs, IODs: iodAddrs}
	for i, ln := range masterLns {
		node, err := meta.NewNode(meta.NodeOptions{
			ID: i, Peers: masterAddrs, Bootstrap: boot,
			Dir: filepath.Join(dir, fmt.Sprintf("master%d", i)),
		})
		if err != nil {
			closeAll(masterLns[i:])
			closeAll(shardLns)
			return nil, err
		}
		d.nodes = append(d.nodes, node)
		d.servers = append(d.servers, pvfsnet.NewServer(ln, node.Handle, nil))
	}
	for i, ln := range shardLns {
		sh := meta.NewShard(meta.ShardOptions{Index: i, Masters: masterAddrs})
		d.shards = append(d.shards, sh)
		d.servers = append(d.servers, pvfsnet.NewServer(ln, sh.Handle, nil))
	}
	if err := d.waitReady(10 * time.Second); err != nil {
		return nil, err
	}
	for r := 0; r < numRanks; r++ {
		fs, err := client.Connect(masterAddrs[0])
		if err != nil {
			return nil, err
		}
		fs.SetRetryPolicy(clientRetry)
		if pr != nil {
			fs.SetConnWrap(pr.ranks[r].wrap)
		}
		d.fss = append(d.fss, fs)
	}
	return d, nil
}

func listenN(n int) ([]net.Listener, []string, error) {
	var lns []net.Listener
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return nil, nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return lns, addrs, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// waitReady blocks until a master leads and every shard has installed
// the shard map.
func (d *deployment) waitReady(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		ready := false
		for _, n := range d.nodes {
			ready = ready || n.IsLeader()
		}
		for _, s := range d.shards {
			ready = ready && s.CurrentMap() != nil
		}
		if ready {
			return nil
		}
		select {
		case <-ctx.Done():
			return errors.New("perfbench: metadata plane not ready")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// iodStats sums the I/O daemons' request and store accounting.
func (d *deployment) iodStats() wire.ServerStats {
	var t wire.ServerStats
	for _, s := range d.iods {
		t.Add(s.Stats())
	}
	return t
}

// metaStats sums the metadata plane's accounting.
func (d *deployment) metaStats() wire.ServerStats {
	var t wire.ServerStats
	for _, s := range d.shards {
		t.Add(s.Stats())
	}
	for _, n := range d.nodes {
		t.Add(n.Stats())
	}
	return t
}

// clientCounters sums the ranks' client counters.
func (d *deployment) clientCounters() client.CounterValues {
	var t client.CounterValues
	for _, fs := range d.fss {
		v := fs.Counters().Snapshot()
		t.Requests += v.Requests
		t.MgrRequests += v.MgrRequests
		t.Retries += v.Retries
	}
	return t
}

// close stops everything and deletes the deployment's data.
func (d *deployment) close() {
	for _, fs := range d.fss {
		fs.Close()
	}
	for _, s := range d.shards {
		s.Close()
	}
	for _, n := range d.nodes {
		n.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	for _, s := range d.iods {
		s.Close()
	}
	if len(d.iods) < len(d.dirs) {
		// A start-up failure left the last store without its daemon,
		// which would otherwise close it.
		d.dirs[len(d.dirs)-1].Close()
	}
	os.RemoveAll(d.dir)
}
