package chainsplit

// The clustered serving surface: OpenCluster turns one durable
// directory into a self-healing replica group — one writable leader,
// N-1 followers tailing its write-ahead log — coordinated by
// internal/cluster. Failure detection, failover, epoch fencing and
// health-aware read routing all happen behind the Cluster handle; the
// caller sees a database that keeps accepting writes and serving
// bounded-staleness reads across single-node failures.
//
// See docs/cluster.md for the epoch invariants and the routing
// policy.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"chainsplit/internal/admission"
	"chainsplit/internal/cluster"
	"chainsplit/internal/core"
	"chainsplit/internal/everr"
	"chainsplit/internal/obsv"
	"chainsplit/internal/replica"
	"chainsplit/internal/scrub"
	"chainsplit/internal/wal"
)

// ClusterConfig sizes the coordination layer of a database opened
// with OpenCluster; it rides along as Config.Cluster. The zero value
// means defaults.
type ClusterConfig struct {
	// Replicas is how many nodes the cluster runs (default 3). Node i
	// stores its state under Config.Dir/node<i>; reopening the same
	// Dir recovers the whole group, electing the most-advanced
	// non-fenced node as leader.
	Replicas int
	// Heartbeat is the leader liveness probe cadence
	// (cluster.Config.Heartbeat; default 20ms).
	Heartbeat time.Duration
	// SuspectAfter is how many consecutive missed probes trigger
	// failover (default 4).
	SuspectAfter int
}

// Cluster is a self-healing replica group behind one handle: writes
// go to the current leader (re-routed across failovers), reads
// load-balance over healthy followers with leader fallback. All
// methods are safe for concurrent use.
type Cluster struct {
	cfg   Config
	nodes []*clusterNode

	coord  *cluster.Coordinator
	router *cluster.Router

	// repairWG tracks in-flight quarantine-and-reseed goroutines so
	// Close can wait them out before tearing the nodes down.
	repairWG sync.WaitGroup

	reseeds atomic.Int64

	mu     sync.Mutex
	closed bool
}

// clusterNode adapts a *DB to cluster.Node. IDs are the node
// directory names (node0, node1, …), which sort the way the
// coordinator's deterministic tie-break expects.
type clusterNode struct {
	id string
	db *DB
	// cl is the owning cluster, set before any detector can fire; the
	// repair goroutine navigates leadership through it.
	cl *Cluster

	mu   sync.Mutex
	addr string // cached ServeReplication address, set by Lead
}

func (n *clusterNode) ID() string         { return n.id }
func (n *clusterNode) Generation() uint64 { return n.db.Generation() }
func (n *clusterNode) Epoch() uint64      { return n.db.Epoch() }
func (n *clusterNode) Durable() bool      { return true }

// Probe reports liveness: a closed database is down, and so — for the
// coordinator's purposes — is a quarantined one. Reporting quarantine
// here is what makes the whole response automatic without widening the
// Node interface: a quarantined leader accumulates missed probes and
// is failed over; a quarantined follower is never elected successor
// (failover's candidate filter probes each candidate). A fenced node is
// down too: a failover that fenced the leader but then failed to
// promote leaves it routed yet refusing writes, and only missed probes
// get the coordinator to try again. (Partitions are modeled by the
// cluster.probe fault site, which the coordinator checks before calling
// Probe at all.)
func (n *clusterNode) Probe() error {
	if n.db.isClosed() {
		return fmt.Errorf("cluster: node %s is closed", n.id)
	}
	if err := n.db.inner.State().LeadRefusal(); err != nil {
		return fmt.Errorf("cluster: node %s: %w", n.id, err)
	}
	return nil
}

func (n *clusterNode) Promote() error { return n.db.Promote() }

// Lead starts (or returns) the node's replication listener.
func (n *clusterNode) Lead() (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.addr != "" {
		return n.addr, nil
	}
	addr, err := n.db.ServeReplication("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	n.addr = addr
	return addr, nil
}

func (n *clusterNode) Retarget(addr string) error { return n.db.retarget(addr) }
func (n *clusterNode) Fence(epoch uint64) error   { return n.db.inner.Fence(epoch) }
func (n *clusterNode) Staleness() time.Duration   { return n.db.Staleness() }

// quarantine takes the node out of service on evidence of corruption
// (a failed scrub pass, an anti-entropy divergence) and owns the
// repair: the first detector to trip the quarantine CAS spawns the
// reseed goroutine, later detections are no-ops against a node already
// being repaired.
func (n *clusterNode) quarantine(cause error) {
	if cause == nil || !n.db.inner.Quarantine() {
		return
	}
	n.cl.repairWG.Add(1)
	go func() {
		defer n.cl.repairWG.Done()
		n.repair()
	}()
}

// repair runs the quarantine-and-reseed sequence (docs/robustness.md):
// wait until the cluster has routed leadership away from this node,
// wipe its state, re-seed from the current leader through the ordinary
// resume handshake, and rejoin the routing set once caught up. Every
// wait re-checks Close so repair never outlives the cluster; a repair
// that cannot complete leaves the node quarantined — shedding with
// ErrQuarantined is the safe terminal state.
func (n *clusterNode) repair() {
	c := n.cl
	// Phase 1: wait out leadership. The coordinator's probe sees
	// ErrQuarantined and fails over to a clean follower; repair must
	// not wipe a node the cluster still routes writes to.
	for {
		if c.isClosed() {
			return
		}
		coord := c.coordinator()
		if coord != nil && coord.Leader().(*clusterNode) != n {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Phase 2: stop streaming (a diverged session has stopped already;
	// a scrub-detected follower's is still applying) and wipe. The
	// store is re-created empty at generation 0 with epoch knowledge
	// preserved and the fenced flag cleared: the node is an ordinary
	// follower again, just one with no state yet.
	n.db.stopSession()
	if err := n.db.inner.ResetReplica(); err != nil {
		return
	}
	// Phase 3: re-seed from the current leader — the resume handshake
	// at generation 0 tails retained history or ships a full snapshot,
	// the same path a brand-new follower takes — following leadership
	// across failovers, and rejoin once caught up to where the leader
	// stood when the stream came up.
	for {
		if c.isClosed() {
			return
		}
		ldr := c.coordinator().Leader().(*clusterNode)
		if ldr == n {
			// Re-elected while quarantined should be impossible (Probe
			// fails); if routing says otherwise, stop rather than wipe.
			return
		}
		addr, err := ldr.Lead()
		if err != nil || n.db.retarget(addr) != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		goal := ldr.db.inner.Generation()
		for {
			if c.isClosed() {
				return
			}
			if c.coordinator().Leader().(*clusterNode) != ldr {
				break // failover mid-reseed: retarget at the new leader
			}
			if n.db.inner.Generation() >= goal {
				n.db.inner.ClearQuarantine()
				c.reseeds.Add(1)
				obsv.Reseeds.Inc()
				c.coordinator().Rejoin(n)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// OpenCluster opens (or creates) a replica group rooted at cfg.Dir:
// cfg.Cluster.Replicas durable nodes under Dir/node0 … Dir/node<N-1>.
// On a fresh directory node0 leads; on recovery the nodes elect the
// most-advanced non-fenced node (highest epoch, then highest durable
// generation, then lowest index) and promote it under a fresh epoch,
// which durably fences any stale ex-leader before a single write is
// accepted. The remaining nodes tail the leader through the ordinary
// resume handshake. Each node is a full durable database
// (Config.Dir/SnapshotEvery semantics apply per node); serving limits
// and MaxStaleness apply per node too.
func OpenCluster(cfg Config) (*Cluster, error) {
	if cfg.Dir == "" {
		return nil, errors.New("chainsplit: OpenCluster requires Config.Dir")
	}
	cc := cfg.Cluster
	if cc == nil {
		cc = &ClusterConfig{}
	}
	replicas := cc.Replicas
	if replicas == 0 {
		replicas = 3
	}
	if replicas < 1 {
		return nil, fmt.Errorf("chainsplit: OpenCluster with %d replicas", replicas)
	}

	c := &Cluster{cfg: cfg}
	fail := func(err error) (*Cluster, error) {
		// Mark closed first: a scrubber may already have spawned a
		// repair goroutine, which must wind down before the nodes go.
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.repairWG.Wait()
		for _, n := range c.nodes {
			n.db.Close()
		}
		return nil, err
	}

	// Open every node as a follower first: recovery must not make
	// anything writable until the election has picked one winner and
	// bumped its epoch past every other node's.
	for i := 0; i < replicas; i++ {
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
		inner, err := core.OpenFollowerDir(dir, wal.Options{SnapshotEvery: cfg.SnapshotEvery})
		if err != nil {
			return fail(fmt.Errorf("cluster node%d: %w", i, err))
		}
		n := &clusterNode{
			id: fmt.Sprintf("node%d", i),
			cl: c,
			db: &DB{
				inner:    inner,
				maxStale: cfg.MaxStaleness,
				adm: admission.New(admission.Config{
					MaxConcurrent: cfg.MaxConcurrent,
					MaxQueue:      cfg.MaxQueue,
				}),
			},
		}
		// Both corruption detectors feed the same response. The hook is
		// installed before any session starts so a divergence on the
		// very first connect is already owned.
		n.db.divergeHook = n.quarantine
		nodeCfg := cfg
		nodeCfg.Dir = dir
		n.db.startScrubber(nodeCfg, func(rep *wal.Report) { n.quarantine(scrub.Corruption(rep)) })
		c.nodes = append(c.nodes, n)
	}

	// Election. A fenced node knows a higher epoch exists somewhere,
	// so it only leads if every node is fenced (a full-cluster
	// restart after deposing — then the most advanced fenced node is
	// the best history available).
	var winner *clusterNode
	var maxEpoch uint64
	better := func(a, b *clusterNode) bool { // is a better than b
		if b == nil {
			return true
		}
		af, bf := a.db.Fenced(), b.db.Fenced()
		if af != bf {
			return !af
		}
		if a.db.Epoch() != b.db.Epoch() {
			return a.db.Epoch() > b.db.Epoch()
		}
		return a.db.Generation() > b.db.Generation() // equal: keep b (lower index)
	}
	for _, n := range c.nodes {
		if e := n.db.Epoch(); e > maxEpoch {
			maxEpoch = e
		}
		if better(n, winner) {
			winner = n
		}
	}
	// Lift the winner to the highest epoch seen anywhere before the
	// promotion bump, so the new leader's epoch strictly exceeds every
	// node's — including fenced zombies that were skipped.
	if err := winner.db.inner.AdoptEpoch(maxEpoch); err != nil {
		return fail(err)
	}
	if err := winner.db.Promote(); err != nil {
		return fail(err)
	}
	addr, err := winner.Lead()
	if err != nil {
		return fail(err)
	}

	var followers []cluster.Node
	for _, n := range c.nodes {
		if n == winner {
			continue
		}
		sess, err := replica.StartFollower(n.db.inner, addr, n.db.followerConfig())
		if err != nil {
			return fail(err)
		}
		n.db.replMu.Lock()
		n.db.repl = sess
		n.db.replMu.Unlock()
		followers = append(followers, n)
	}

	// The assignment is locked because a detector (scrubber pass,
	// divergence hook) may already have spawned a repair goroutine,
	// which reads the coordinator through the same lock.
	c.mu.Lock()
	c.coord = cluster.NewCoordinator(winner, followers, cluster.Config{
		Heartbeat:    cc.Heartbeat,
		SuspectAfter: cc.SuspectAfter,
	})
	c.router = cluster.NewRouter(c.coord)
	c.mu.Unlock()
	return c, nil
}

// coordinator returns the coordinator, nil while OpenCluster is still
// assembling the group (repair goroutines wait that window out).
func (c *Cluster) coordinator() *cluster.Coordinator {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coord
}

// isClosed reports whether Close has begun.
func (c *Cluster) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// leaderNode returns the coordinator's current leader.
func (c *Cluster) leaderNode() *clusterNode {
	return c.coord.Leader().(*clusterNode)
}

// Leader returns the database currently accepting writes. The
// reference can be deposed at any moment; mutations through it then
// fail with ErrFenced rather than split-brain.
func (c *Cluster) Leader() *DB { return c.leaderNode().db }

// Failovers reports how many automated failovers the cluster has
// committed since open.
func (c *Cluster) Failovers() int64 { return c.coord.Failovers() }

// Reseeds reports how many quarantine-and-reseed repairs the cluster
// has completed since open: nodes that detected corruption in their
// own state (scrub or anti-entropy), wiped it, re-seeded from the
// leader and rejoined.
func (c *Cluster) Reseeds() int64 { return c.reseeds.Load() }

// write runs one mutation against the current leader, re-routing and
// retrying while leadership is in flux: ErrFenced and ErrNotLeader
// mean a failover won the race (retry against the new leader),
// ErrQuarantined means the routed leader detected corruption and is
// about to be deposed, and a closed leader means the coordinator has
// not yet deposed it. Any other failure — a parse error, a corrupt
// store — is the caller's, returned as is. Bounded: gives up after ~5s
// of continuous leadership churn.
func (c *Cluster) write(f func(db *DB) error) error {
	var last error
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := c.leaderNode()
		err := f(n.db)
		if err == nil {
			return nil
		}
		last = err
		if !errors.Is(err, everr.ErrFenced) && !errors.Is(err, everr.ErrNotLeader) &&
			!errors.Is(err, everr.ErrQuarantined) && !n.db.isClosed() {
			return err
		}
		if time.Now().After(deadline) {
			return last
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Exec parses and loads rules, facts and pragmas on the cluster
// leader, following leadership across failovers (see DB.Exec).
func (c *Cluster) Exec(src string) error {
	return c.write(func(db *DB) error { return db.Exec(src) })
}

// LoadFacts bulk-loads ground tuples on the cluster leader, following
// leadership across failovers (see DB.LoadFacts).
func (c *Cluster) LoadFacts(pred string, tuples [][]Term) error {
	return c.write(func(db *DB) error { return db.LoadFacts(pred, tuples) })
}

// Query is QueryCtx with a background context.
func (c *Cluster) Query(q string, options ...Option) (*Result, error) {
	return c.QueryCtx(context.Background(), q, options...)
}

// QueryCtx evaluates a query on a healthy replica: round-robin over
// the followers whose circuit breakers are closed, falling back to
// the leader when every follower is dark or stale past
// Config.MaxStaleness. Node-attributable failures re-route to the
// next replica; deterministic query failures (ErrUnsafe, ErrBudget,
// ErrDeadline, …) return immediately — they would fail identically
// everywhere.
func (c *Cluster) QueryCtx(ctx context.Context, q string, options ...Option) (*Result, error) {
	v, err := c.router.Read(ctx, func(ctx context.Context, n cluster.Node) (any, error) {
		return n.(*clusterNode).db.QueryCtx(ctx, q, options...)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// Generation returns the current leader's generation.
func (c *Cluster) Generation() uint64 { return c.Leader().Generation() }

// WaitReplicated blocks until at least n of the followers routed when
// the wait starts have applied generation gen (n <= 0 or n beyond the
// follower count means all of them), and reports whether they got
// there. It returns false if d elapses first, or if a failover begins
// deposing the leader of that moment first: gen is taken to be a
// generation that leader wrote, and after a failover a follower's
// generation may come from the new leader's branch instead. Callers use
// it for read-your-writes against routed reads and for durable
// acknowledgement beyond the leader's own log (docs/cluster.md states
// the rule).
func (c *Cluster) WaitReplicated(gen uint64, n int, d time.Duration) bool {
	return c.coord.WaitReplicated(c.coord.View(), gen, n, d)
}

// Epoch returns the current leader's epoch.
func (c *Cluster) Epoch() uint64 { return c.Leader().Epoch() }

// Close stops the coordinator and closes every node, deposed
// ex-leaders included. Idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.coord.Close()
	// Repair goroutines check the closed flag at every wait; let them
	// wind down before the nodes they would reseed are torn away.
	c.repairWG.Wait()
	var first error
	for _, n := range c.nodes {
		if err := n.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Epoch returns the leader epoch this database serves under: 0 until
// it has ever led or followed a leader, bumped by every Promote,
// adopted from the stream by followers. Epochs totally order
// leaderships; see docs/cluster.md.
func (db *DB) Epoch() uint64 { return db.inner.Epoch() }

// Fenced reports whether this database is a deposed leader: a
// successor holds a higher epoch and mutations here fail with
// ErrFenced. Fencing is durable — it survives reopening the same
// directory — and is cleared only by Promote.
func (db *DB) Fenced() bool { return db.inner.State().Fenced }

// isClosed reports whether Close has been called.
func (db *DB) isClosed() bool {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	return db.closed
}

// retarget re-points a follower at a new leader address: the old
// session stops, a new one resumes from the node's own durable
// position through the ordinary resume handshake. A no-op on a
// database that is no longer a follower (it was promoted while the
// retarget was in flight).
func (db *DB) retarget(addr string) error {
	db.replMu.Lock()
	if db.closed {
		db.replMu.Unlock()
		return errors.New("chainsplit: database is closed")
	}
	old := db.repl
	db.repl = nil
	db.replMu.Unlock()
	if old != nil {
		old.Stop()
	}
	if !db.inner.State().Follower {
		return nil
	}
	sess, err := replica.StartFollower(db.inner, addr, db.followerConfig())
	if err != nil {
		return err
	}
	db.replMu.Lock()
	if db.closed {
		db.replMu.Unlock()
		sess.Stop()
		return errors.New("chainsplit: database is closed")
	}
	db.repl = sess
	db.replMu.Unlock()
	return nil
}
