package ring

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
)

// ClusterConfig sizes an in-process cluster: N replica nodes plus a
// router, each on its own real TCP listener — the topology alserve
// -replicas boots and the chaos suite aims faults at.
type ClusterConfig struct {
	// Replicas is the node count (minimum 1).
	Replicas int

	// Replication is how many copies of each campaign's journal exist,
	// owner included (default 2 — owner plus one follower; clamped to
	// Replicas). Appends ack after the owner plus a quorum of one
	// follower hold the record.
	Replication int

	// Detector, when non-nil, enables autonomous failure detection and
	// self-healing: the router heartbeats every node, fails over
	// condemned ones, and rejoins them when they heal. Nil keeps
	// failover operator-driven.
	Detector *DetectorConfig

	// RouterAddr is the router's listen address (default "127.0.0.1:0",
	// an ephemeral loopback port — what in-process tests want; alserve
	// passes its -addr here). Nodes always listen on ephemeral loopback
	// ports: the router is the only public front.
	RouterAddr string

	// Dir, when set, gives each node a DirStore under Dir/<nodeID>;
	// otherwise nodes keep journals in per-node MemStores (replication
	// still ships them to followers).
	Dir string

	// Serve is the per-node manager template (Store and CheckpointDir
	// are overridden per node).
	Serve serve.Config

	// Server is the per-node HTTP front template.
	Server serve.ServerConfig

	// Router tunes the router (its Transport is wrapped with the
	// cluster's partition gate and chaos layer).
	Router RouterConfig

	// Chaos injects seeded network faults into router→node calls.
	Chaos faults.NetworkConfig

	// ShipChaos injects seeded network faults into node→node shipping.
	ShipChaos faults.NetworkConfig

	// ShipTimeout bounds one ship/sync call (NodeConfig.ShipTimeout).
	ShipTimeout time.Duration
}

// Cluster is a running in-process fleet. Kill and Partition make it a
// deterministic chaos rig: both act on real listeners and transports,
// so failure behavior in tests is the behavior a deployment would see.
type Cluster struct {
	cfg      ClusterConfig
	shipBase http.RoundTripper

	router    *Router
	routerLn  net.Listener
	routerSrv *http.Server

	mu     sync.Mutex
	nodes  map[string]*clusterNode
	order  []string
	hostID map[string]string // listener host:port → node id, for the partition gate
}

type clusterNode struct {
	node        *Node
	srv         *http.Server
	url         string
	partitioned atomic.Bool
	killed      bool
}

// StartCluster boots the fleet: nodes first, then the membership push,
// then campaign resume, then the router listener.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Replication < 2 {
		cfg.Replication = 2
	}
	if cfg.Replication > cfg.Replicas {
		cfg.Replication = cfg.Replicas
	}
	c := &Cluster{
		cfg:    cfg,
		nodes:  make(map[string]*clusterNode),
		hostID: make(map[string]string),
	}

	var shipBase http.RoundTripper = http.DefaultTransport
	if cfg.ShipChaos != (faults.NetworkConfig{}) {
		shipBase = faults.WrapRoundTripper(shipBase, faults.NewNet(cfg.ShipChaos))
	}
	c.shipBase = shipBase

	var members []Member
	var listeners []net.Listener
	for i := 0; i < cfg.Replicas; i++ {
		id := fmt.Sprintf("n%d", i+1)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("ring: listen for node %s: %w", id, err)
		}
		n := NewNode(c.nodeConfig(id))
		url := "http://" + ln.Addr().String()
		cn := &clusterNode{node: n, url: url, srv: &http.Server{Handler: n}}
		c.nodes[id] = cn
		c.order = append(c.order, id)
		c.hostID[ln.Addr().String()] = id
		members = append(members, Member{ID: id, URL: url})
		listeners = append(listeners, ln)
	}

	rcfg := cfg.Router
	base := rcfg.Transport
	if base == nil {
		base = http.DefaultTransport
	}
	if cfg.Chaos != (faults.NetworkConfig{}) {
		base = faults.WrapRoundTripper(base, faults.NewNet(cfg.Chaos))
	}
	rcfg.Transport = &partitionGate{cluster: c, base: base}
	router, err := NewRouter(members, rcfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.router = router

	for i, ln := range listeners {
		go c.nodes[c.order[i]].srv.Serve(ln)
	}
	if err := router.PushMembership(); err != nil {
		c.Close()
		return nil, fmt.Errorf("ring: initial membership push: %w", err)
	}
	for _, id := range c.order {
		if _, err := c.nodes[id].node.Manager().ResumeAll(); err != nil {
			c.Close()
			return nil, fmt.Errorf("ring: resume on %s: %w", id, err)
		}
	}

	if cfg.Detector != nil {
		router.EnableAutoFailover(*cfg.Detector)
	}

	raddr := cfg.RouterAddr
	if raddr == "" {
		raddr = "127.0.0.1:0"
	}
	rln, err := net.Listen("tcp", raddr)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("ring: listen for router: %w", err)
	}
	c.routerLn = rln
	c.routerSrv = &http.Server{Handler: router}
	go c.routerSrv.Serve(rln)
	return c, nil
}

// nodeConfig builds one node's config from the cluster template.
func (c *Cluster) nodeConfig(id string) NodeConfig {
	scfg := c.cfg.Serve
	scfg.Store = nil
	if c.cfg.Dir != "" {
		scfg.CheckpointDir = filepath.Join(c.cfg.Dir, id)
	} else {
		scfg.CheckpointDir = ""
	}
	return NodeConfig{
		ID:          id,
		Serve:       scfg,
		Server:      c.cfg.Server,
		ShipTimeout: c.cfg.ShipTimeout,
		Followers:   c.cfg.Replication - 1,
		Client:      &http.Client{Transport: c.shipBase},
	}
}

// URL is the router's base URL — the cluster's public front.
func (c *Cluster) URL() string { return "http://" + c.routerLn.Addr().String() }

// Router exposes the router for failover/migration control.
func (c *Cluster) Router() *Router { return c.router }

// NodeIDs lists the nodes in boot order.
func (c *Cluster) NodeIDs() []string { return append([]string(nil), c.order...) }

// Node returns a node by id (nil when unknown).
func (c *Cluster) Node(id string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cn := c.nodes[id]; cn != nil {
		return cn.node
	}
	return nil
}

// NodeURL returns a node's base URL ("" when unknown).
func (c *Cluster) NodeURL(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cn := c.nodes[id]; cn != nil {
		return cn.url
	}
	return ""
}

// Kill abruptly stops a node: shipping is cut first (so followers see
// exactly what a real crash would have sent — nothing more), then the
// listener and all live connections drop, then the node's goroutines
// are reaped so in-process tests stay leak-free. The dead node's
// campaigns are failed over by Router.Failover — either the operator's
// (or the test's) explicit call, or, with ClusterConfig.Detector set,
// the failure detector once suspicion crosses the dead threshold.
func (c *Cluster) Kill(id string) error {
	c.mu.Lock()
	cn := c.nodes[id]
	if cn == nil {
		c.mu.Unlock()
		return fmt.Errorf("ring: kill of unknown node %q", id)
	}
	if cn.killed {
		c.mu.Unlock()
		return nil
	}
	cn.killed = true
	c.mu.Unlock()

	cn.node.MarkDead()
	cn.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cn.node.Manager().Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// Restart boots a previously killed node again: a fresh Node with the
// same identity and checkpoint dir on a new listener, then a router
// Rejoin — the node is reconciled, readmitted at a new epoch, and
// campaigns rebalance back to it. With a DirStore the node's journals
// survived the kill; reconcile decides which of them it may keep.
func (c *Cluster) Restart(id string) error {
	c.mu.Lock()
	cn := c.nodes[id]
	if cn == nil {
		c.mu.Unlock()
		return fmt.Errorf("ring: restart of unknown node %q", id)
	}
	if !cn.killed {
		c.mu.Unlock()
		return fmt.Errorf("ring: restart of running node %q", id)
	}
	c.mu.Unlock()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("ring: listen for restarted node %s: %w", id, err)
	}
	n := NewNode(c.nodeConfig(id))
	url := "http://" + ln.Addr().String()
	next := &clusterNode{node: n, url: url, srv: &http.Server{Handler: n}}

	c.mu.Lock()
	for host, hid := range c.hostID {
		if hid == id {
			delete(c.hostID, host)
		}
	}
	c.nodes[id] = next
	c.hostID[ln.Addr().String()] = id
	c.mu.Unlock()

	go next.srv.Serve(ln)
	return c.router.Rejoin(Member{ID: id, URL: url})
}

// Partition cuts (or heals) the network between the router and one
// node: forwarded requests fail at the transport like a dropped link,
// which the router's retrying client and breaker then absorb. Shipping
// between nodes is unaffected.
func (c *Cluster) Partition(id string, cut bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cn := c.nodes[id]
	if cn == nil {
		return fmt.Errorf("ring: partition of unknown node %q", id)
	}
	cn.partitioned.Store(cut)
	return nil
}

// Close tears the whole fleet down: detector first (stop the heartbeat
// loops before their targets vanish), then the router listener, then
// every surviving node.
func (c *Cluster) Close() error {
	var errs []error
	if c.router != nil {
		c.router.Close()
	}
	if c.routerSrv != nil {
		c.routerSrv.Close()
	}
	c.mu.Lock()
	ids := append([]string(nil), c.order...)
	c.mu.Unlock()
	for _, id := range ids {
		c.mu.Lock()
		cn := c.nodes[id]
		killed := cn != nil && cn.killed
		c.mu.Unlock()
		if cn == nil || killed {
			continue
		}
		if err := c.Kill(id); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// partitionGate fails requests aimed at a partitioned node before they
// touch the network.
type partitionGate struct {
	cluster *Cluster
	base    http.RoundTripper
}

func (g *partitionGate) RoundTrip(req *http.Request) (*http.Response, error) {
	g.cluster.mu.Lock()
	id := g.cluster.hostID[req.URL.Host]
	var cut bool
	if cn := g.cluster.nodes[id]; cn != nil {
		cut = cn.partitioned.Load()
	}
	g.cluster.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("ring: partition between router and %s: %w", id, errPartitioned)
	}
	return g.base.RoundTrip(req)
}

// errPartitioned marks a request dropped by an injected partition.
var errPartitioned = errors.New("ring: injected partition")
