// Package cluster is the self-healing coordination layer over
// internal/replica: it watches a leader, fails over to the
// most-caught-up durable follower when the leader stops answering,
// and routes bounded-staleness reads across the healthy replicas.
//
// The package deliberately coordinates through the same primitives an
// operator would use by hand — Promote, the resume handshake, epoch
// fencing — so there is exactly one failover story whether a human or
// the Coordinator runs it. What the Coordinator adds is the decision
// procedure: heartbeat-based suspicion (K consecutive missed probes),
// a deterministic successor rule (most-caught-up durable follower,
// ties broken by smallest ID), and the fencing call that makes the
// deposed leader refuse writes it could never get acknowledged.
//
// Safety leans entirely on the epoch machinery underneath: the
// successor's Promote persists a higher epoch before it turns
// writable, surviving followers adopt the higher epoch from the new
// stream, and the old leader — whether fenced directly by the
// Coordinator or later by a follower's handshake — fails mutations
// with everr.ErrFenced. Two nodes can therefore never both
// acknowledge writes in the same epoch, no matter how wrong the
// failure detector was.
package cluster

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chainsplit/internal/faultinject"
	"chainsplit/internal/obsv"
)

// Node is one database in the cluster, as the coordinator and router
// see it. The serving layer (package chainsplit) adapts its *DB to
// this; tests use fakes.
type Node interface {
	// ID identifies the node stably and uniquely; successor ties are
	// broken by the smallest ID, so the choice is deterministic across
	// coordinators observing the same state.
	ID() string
	// Generation is the node's current applied generation.
	Generation() uint64
	// Epoch is the leader epoch the node currently serves under.
	Epoch() uint64
	// Durable reports whether the node has its own write-ahead log. A
	// write is acknowledged durably only once a durable node holds it,
	// so only durable nodes are eligible successors.
	Durable() bool
	// Probe checks liveness: nil if the node is up and serving. A
	// fenced node is not serving writes, so it reports an error.
	Probe() error
	// Promote makes the node a writable leader under a bumped epoch
	// (core.DB.Promote semantics: exact last durable generation or a
	// typed error).
	Promote() error
	// Lead starts (or returns) the node's replication listener and
	// returns its address for followers to re-point at.
	Lead() (string, error)
	// Retarget re-points the node's follower session at a new leader
	// address; the resume handshake continues from the node's own
	// durable position.
	Retarget(addr string) error
	// Fence tells the node a higher epoch exists (core.DB.Fence): a
	// no-op below the node's own epoch, durable deposition above it.
	// Once it returns nil the node accepts no further write.
	Fence(epoch uint64) error
	// Staleness is the node's bounded-staleness measure (the session's
	// time-since-sync, or 0 for a leader).
	Staleness() time.Duration
}

// Config tunes a Coordinator; the zero value means defaults.
type Config struct {
	// Heartbeat is the leader probe cadence (default 20ms).
	Heartbeat time.Duration
	// SuspectAfter is how many consecutive failed probes depose the
	// leader (default 4). With the default heartbeat, failover begins
	// ~80ms after the leader stops answering.
	SuspectAfter int
}

// Coordinator runs failure detection and failover for one cluster. It
// probes the leader every Heartbeat; after SuspectAfter consecutive
// failures it fences the old leader, promotes the most-caught-up
// durable follower, re-points the survivors, and drops the deposed node
// from the routing set.
type Coordinator struct {
	cfg Config

	mu        sync.Mutex
	leader    Node
	followers []Node
	// deposals counts failover attempts that went on to fence their
	// leader; a View is current only while it is unchanged.
	deposals uint64

	failovers atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// NewCoordinator starts coordinating a cluster currently led by
// leader, with followers already streaming from it. Close stops the
// probe loop.
func NewCoordinator(leader Node, followers []Node, cfg Config) *Coordinator {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 20 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 4
	}
	c := &Coordinator{
		cfg:       cfg,
		leader:    leader,
		followers: append([]Node(nil), followers...),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go c.run()
	return c
}

// Leader returns the node currently routed writes.
func (c *Coordinator) Leader() Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leader
}

// Followers returns the nodes currently routed reads (a copy).
func (c *Coordinator) Followers() []Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Node(nil), c.followers...)
}

// Failovers returns how many failovers this coordinator has committed.
func (c *Coordinator) Failovers() int64 { return c.failovers.Load() }

// View is a snapshot of the routing state: the leader writes go to and
// the followers replicating it. A view stays current until a failover
// begins deposing its leader.
type View struct {
	Leader    Node
	Followers []Node
	deposals  uint64
}

// View returns the current routing state.
func (c *Coordinator) View() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return View{Leader: c.leader, Followers: append([]Node(nil), c.followers...), deposals: c.deposals}
}

// current reports whether no failover has begun deposing v.Leader
// since v was taken.
func (c *Coordinator) current(v View) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deposals == v.deposals
}

// WaitReplicated is the acknowledgement rule (docs/cluster.md): a write
// v.Leader accepted at generation gen is acknowledged once at least n of
// v.Followers (n <= 0 or beyond their count: all of them) have applied
// gen while v is still current. It returns false if d elapses first, or
// if a failover begins deposing v.Leader first — whatever the followers
// hold then may be the old leader's branch or the new one's, and a
// generation number alone cannot tell them apart.
//
// The check is sound because failover fences before it samples: if v is
// still current after every follower was seen at gen, any later
// failover fences the leader after that and then samples those
// followers at gen or beyond, so its successor holds gen.
func (c *Coordinator) WaitReplicated(v View, gen uint64, n int, d time.Duration) bool {
	want := n
	if want <= 0 || want > len(v.Followers) {
		want = len(v.Followers)
	}
	deadline := time.Now().Add(d)
	for {
		caught := 0
		for _, f := range v.Followers {
			if f.Generation() >= gen {
				caught++
			}
		}
		// Currency is checked after sampling, never before: that order
		// is what the soundness argument above needs.
		if !c.current(v) {
			return false
		}
		if caught >= want {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Rejoin re-admits a repaired node to the follower rotation. The
// serving layer calls it after quarantine-and-reseed completes — the
// node has wiped its state, re-seeded from the current leader and
// caught up, so it is as good a read replica (and failover candidate)
// as any. A node that is currently the leader, or already a follower,
// is left alone.
func (c *Coordinator) Rejoin(n Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n == c.leader {
		return
	}
	for _, f := range c.followers {
		if f == n {
			return
		}
	}
	c.followers = append(c.followers, n)
	sort.Slice(c.followers, func(i, j int) bool { return c.followers[i].ID() < c.followers[j].ID() })
}

// Close stops the probe loop. The nodes themselves are untouched.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

// run is the failure-detection loop: probe the leader each heartbeat,
// count consecutive misses, fail over at the suspicion threshold. The
// cluster.probe fault site gates only this liveness probe — injecting
// an error there simulates a partition between coordinator and
// leader — not the candidate filtering inside failover, so a chaos
// hook that partitions the leader cannot also veto every successor.
func (c *Coordinator) run() {
	defer close(c.done)
	// The probe cadence is jittered ±20% per beat: coordinators (and
	// anything else on a Heartbeat-multiple cadence — scrub passes,
	// anti-entropy digests) must not synchronize into probing storms,
	// and a probe landing at a fixed phase of the leader's own periodic
	// work would alias real load into false suspicion.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	jittered := func() time.Duration {
		spread := int64(c.cfg.Heartbeat) / 5
		return c.cfg.Heartbeat + time.Duration(rng.Int63n(2*spread+1)-spread)
	}
	t := time.NewTimer(jittered())
	defer t.Stop()
	missed := 0
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		t.Reset(jittered())
		err := faultinject.Fire(faultinject.SiteClusterProbe)
		if err == nil {
			err = c.Leader().Probe()
		}
		if err == nil {
			missed = 0
			continue
		}
		missed++
		if missed < c.cfg.SuspectAfter {
			continue
		}
		if c.failover() {
			missed = 0
		}
		// No eligible successor: keep the suspicion and retry next
		// beat — a durable follower may catch up or come back.
	}
}

// failover deposes the current leader: fence it under the epoch its
// successor is about to mint, then pick the most-caught-up live durable
// follower (ties by smallest ID) from generations sampled after the
// fence, promote it, re-point the surviving followers, and commit the
// new routing state. Returns false — with the routing state unchanged —
// if no follower is eligible, a reachable leader refuses the fence, or
// promotion fails; the next beat retries. (A leader fenced by an
// attempt whose promotion then failed stays fenced; a Node reports a
// fenced leader down to Probe, so suspicion keeps building.)
//
// Fencing comes first because a leader that is merely partitioned from
// the coordinator is still writable: sampled before the fence, follower
// generations can miss writes it accepts afterwards, and a successor
// chosen from them would drop writes already acknowledged.
//
// The probe/promote/fence/retarget calls are network-ish I/O, so they
// run with c.mu RELEASED — holding it would block Leader()/Followers()
// (and with them every routed read and write) for the whole attempt.
// The routing snapshot is taken under the lock, the I/O happens
// against the snapshot, and the commit re-acquires the lock and
// re-validates that leadership did not change underneath (safety does
// not depend on this — the epoch machinery fences any loser — it just
// keeps the routing state coherent if a second deposer ever appears).
func (c *Coordinator) failover() bool {
	c.mu.Lock()
	old := c.leader
	followers := append([]Node(nil), c.followers...)
	c.mu.Unlock()

	var live []Node
	for _, f := range followers {
		if f.Durable() && f.Probe() == nil {
			live = append(live, f)
		}
	}
	if len(live) == 0 {
		return false // nobody to hand over to: leave the leader writable
	}

	c.mu.Lock()
	c.deposals++
	c.mu.Unlock()
	// Followers adopt their leader's epoch, so the successor mints
	// old.Epoch()+1. A leader that does not answer probes cannot be
	// fenced directly — the epoch on the wire fences it the moment it
	// comes back and meets any survivor — but one that answers and
	// still refuses may go on accepting writes: abort.
	if err := old.Fence(old.Epoch() + 1); err != nil && old.Probe() == nil {
		return false
	}
	var succ Node
	var succGen uint64
	for _, f := range live {
		g := f.Generation()
		if succ == nil || g > succGen || (g == succGen && f.ID() < succ.ID()) {
			succ, succGen = f, g
		}
	}
	if err := succ.Promote(); err != nil {
		return false
	}
	addr, leadErr := succ.Lead()
	rest := make([]Node, 0, len(followers))
	for _, f := range followers {
		if f == succ {
			continue
		}
		if leadErr == nil {
			f.Retarget(addr)
		}
		rest = append(rest, f)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].ID() < rest[j].ID() })

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leader != old {
		return false
	}
	c.leader = succ
	c.followers = rest
	c.failovers.Add(1)
	obsv.ClusterFailovers.Inc()
	return true
}
