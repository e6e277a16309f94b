package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chainsplit/internal/everr"
	"chainsplit/internal/faultinject"
	"chainsplit/internal/retry"
)

// fakeNode scripts a Node for coordinator/router tests.
type fakeNode struct {
	id      string
	durable bool

	mu        sync.Mutex
	gen       uint64
	epoch     uint64
	down      bool
	promoted  bool
	fencedAt  uint64
	retargets []string
	leadErr   error
	fenceErr  error

	// Scripted interleavings for the step-by-step failover tests: each
	// hook runs once, outside n.mu, when the call first reaches it, and
	// log (when set) records fences and promotions in call order.
	onFence      func()
	onGeneration func()
	log          *[]string
}

// fire runs and clears a one-shot hook.
func (n *fakeNode) fire(hook *func()) {
	n.mu.Lock()
	h := *hook
	*hook = nil
	n.mu.Unlock()
	if h != nil {
		h()
	}
}

func (n *fakeNode) record(event string) {
	if n.log != nil {
		*n.log = append(*n.log, event)
	}
}

func (n *fakeNode) ID() string { return n.id }
func (n *fakeNode) Generation() uint64 {
	n.fire(&n.onGeneration)
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gen
}
func (n *fakeNode) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}
func (n *fakeNode) Durable() bool { return n.durable }
func (n *fakeNode) Probe() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return errors.New("down")
	}
	return nil
}
func (n *fakeNode) Promote() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.record("promote " + n.id)
	n.promoted = true
	n.epoch++
	return nil
}
func (n *fakeNode) Lead() (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return "addr:" + n.id, n.leadErr
}
func (n *fakeNode) Retarget(addr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.retargets = append(n.retargets, addr)
	return nil
}
func (n *fakeNode) Fence(epoch uint64) error {
	n.fire(&n.onFence)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.record(fmt.Sprintf("fence %s@%d", n.id, epoch))
	if n.fenceErr != nil {
		return n.fenceErr
	}
	if epoch > n.epoch {
		n.fencedAt = epoch
	}
	return nil
}
func (n *fakeNode) Staleness() time.Duration { return 0 }

func (n *fakeNode) setDown(v bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = v
}

func newCluster(t *testing.T, gens ...uint64) (*Coordinator, *fakeNode, []*fakeNode) {
	t.Helper()
	leader := &fakeNode{id: "n0", durable: true}
	var followers []*fakeNode
	var nodes []Node
	for i, g := range gens {
		f := &fakeNode{id: fmt.Sprintf("n%d", i+1), durable: true, gen: g}
		followers = append(followers, f)
		nodes = append(nodes, f)
	}
	c := NewCoordinator(leader, nodes, Config{Heartbeat: 5 * time.Millisecond, SuspectAfter: 3})
	t.Cleanup(c.Close)
	return c, leader, followers
}

func waitFailovers(t *testing.T, c *Coordinator, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Failovers() < want {
		if time.Now().After(deadline) {
			t.Fatalf("stuck at %d failovers, want %d", c.Failovers(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFailoverPicksMostCaughtUpDurable(t *testing.T) {
	c, leader, followers := newCluster(t, 5, 9, 7)
	leader.setDown(true)
	waitFailovers(t, c, 1)
	if got := c.Leader().ID(); got != "n2" {
		t.Fatalf("promoted %s, want n2 (generation 9)", got)
	}
	if !followers[1].promoted {
		t.Fatal("successor was never promoted")
	}
	// The deposed leader is fenced with the successor's bumped epoch.
	if got := leader.fencedAt; got != followers[1].Epoch() {
		t.Fatalf("old leader fenced at epoch %d, successor at %d", got, followers[1].Epoch())
	}
	// Survivors are re-pointed at the successor's address.
	for _, f := range []*fakeNode{followers[0], followers[2]} {
		f.mu.Lock()
		rt := append([]string(nil), f.retargets...)
		f.mu.Unlock()
		if len(rt) != 1 || rt[0] != "addr:n2" {
			t.Fatalf("follower %s retargets = %v, want [addr:n2]", f.id, rt)
		}
	}
	// The deposed node left the routing set: it neither leads nor
	// follows.
	if c.Leader().ID() == "n0" {
		t.Fatal("deposed leader still leads")
	}
	for _, f := range c.Followers() {
		if f.ID() == "n0" {
			t.Fatal("deposed leader still in the follower set")
		}
	}
}

func TestFailoverTiesBreakBySmallestID(t *testing.T) {
	c, leader, _ := newCluster(t, 4, 4, 4)
	leader.setDown(true)
	waitFailovers(t, c, 1)
	if got := c.Leader().ID(); got != "n1" {
		t.Fatalf("promoted %s, want n1 (smallest ID at equal generation)", got)
	}
}

func TestFailoverSkipsDeadAndNonDurable(t *testing.T) {
	leader := &fakeNode{id: "n0", durable: true}
	mem := &fakeNode{id: "n1", durable: false, gen: 99}
	dead := &fakeNode{id: "n2", durable: true, gen: 50, down: true}
	ok := &fakeNode{id: "n3", durable: true, gen: 10}
	c := NewCoordinator(leader, []Node{mem, dead, ok}, Config{Heartbeat: 5 * time.Millisecond, SuspectAfter: 3})
	defer c.Close()
	leader.setDown(true)
	waitFailovers(t, c, 1)
	if got := c.Leader().ID(); got != "n3" {
		t.Fatalf("promoted %s, want n3 (only live durable follower)", got)
	}
}

func TestNoFailoverBelowSuspicionThreshold(t *testing.T) {
	c, leader, _ := newCluster(t, 1)
	// Blink the leader for a single probe at a time: suspicion must
	// reset on every success and never reach the threshold.
	for i := 0; i < 5; i++ {
		leader.setDown(true)
		time.Sleep(6 * time.Millisecond)
		leader.setDown(false)
		time.Sleep(12 * time.Millisecond)
	}
	if got := c.Failovers(); got != 0 {
		t.Fatalf("%d failovers from sub-threshold blinks, want 0", got)
	}
}

func TestProbeFaultSiteDrivesFailover(t *testing.T) {
	c, _, _ := newCluster(t, 3)
	restore := faultinject.Set(faultinject.SiteClusterProbe, func() error {
		return errors.New("injected coordinator partition")
	})
	defer restore()
	waitFailovers(t, c, 1)
	restore()
	if got := c.Leader().ID(); got != "n1" {
		t.Fatalf("leader after injected partition = %s, want n1", got)
	}
}

func TestRouterRoundRobinAndLeaderFallback(t *testing.T) {
	c, _, followers := newCluster(t, 1, 1)
	r := NewRouter(c)
	seen := map[string]int{}
	for i := 0; i < 10; i++ {
		v, err := r.Read(context.Background(), func(_ context.Context, n Node) (any, error) {
			return n.ID(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		seen[v.(string)]++
	}
	if seen["n1"] == 0 || seen["n2"] == 0 {
		t.Fatalf("round robin never reached both followers: %v", seen)
	}
	if seen["n0"] != 0 {
		t.Fatalf("leader served %d reads while followers were healthy", seen["n0"])
	}
	// All followers stale → every read lands on the leader.
	_ = followers
	v, err := r.Read(context.Background(), func(_ context.Context, n Node) (any, error) {
		if n.ID() != "n0" {
			return nil, everr.ErrStale
		}
		return n.ID(), nil
	})
	if err != nil || v.(string) != "n0" {
		t.Fatalf("leader fallback: v=%v err=%v", v, err)
	}
}

func TestRouterBreakerOpensAndRecovers(t *testing.T) {
	c, _, _ := newCluster(t, 1)
	r := NewRouter(c)
	var attempts atomic.Int64
	failing := func(_ context.Context, n Node) (any, error) {
		if n.ID() == "n1" {
			attempts.Add(1)
			return nil, errors.New("connection refused")
		}
		return n.ID(), nil
	}
	// Three node faults open the breaker; further reads skip n1
	// entirely (the leader serves them without n1 attempts growing).
	for i := 0; i < 3; i++ {
		if v, err := r.Read(context.Background(), failing); err != nil || v.(string) != "n0" {
			t.Fatalf("read %d: v=%v err=%v", i, v, err)
		}
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("n1 attempts before open = %d, want 3", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.Read(context.Background(), failing); err != nil {
			t.Fatal(err)
		}
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("open breaker still admitted attempts: %d, want 3", got)
	}
	// After the open interval (25ms, jittered), the half-open probe
	// admits exactly one attempt; a success closes the breaker and n1
	// serves again.
	time.Sleep(25 * time.Millisecond)
	healed := func(_ context.Context, n Node) (any, error) { return n.ID(), nil }
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := r.Read(context.Background(), healed)
		if err != nil {
			t.Fatal(err)
		}
		if v.(string) == "n1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the node healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// retryPolicy builds a jitter-free backoff with a fixed base for
// deterministic breaker timing in tests (delay() ignores Jitter -1).
func retryPolicy(base time.Duration) retry.Policy {
	return retry.Policy{BaseDelay: base, MaxDelay: base, Jitter: -1}
}

// allow is called while LISTING candidates, so an admitted half-open
// probe may never actually run (the read settles on an earlier node).
// The probe slot must expire and re-admit — an unexercised slot must
// not wedge the breaker half-open (admitting no one) forever.
func TestBreakerHalfOpenProbeSlotExpires(t *testing.T) {
	b := &breaker{pol: retryPolicy(5 * time.Millisecond), threshold: 1}
	now := time.Unix(0, 0)
	b.record(false, now) // one failure at threshold 1: trip
	if b.allow(now) {
		t.Fatal("open breaker admitted an attempt")
	}
	now = now.Add(6 * time.Millisecond)
	if !b.allow(now) {
		t.Fatal("elapsed open interval did not admit a probe")
	}
	if b.allow(now) {
		t.Fatal("held probe slot admitted a concurrent attempt")
	}
	// The probe never reports. After the slot's interval the breaker
	// must admit the next caller instead of staying wedged.
	now = now.Add(6 * time.Millisecond)
	if !b.allow(now) {
		t.Fatal("unexercised probe slot wedged the breaker half-open")
	}
	b.record(true, now)
	if !b.allow(now) {
		t.Fatal("breaker did not close on probe success")
	}
}

// A query-attributable failure — an unsafe query, a canceled or
// expired read — settles the read with its typed error at once and
// counts as a breaker success: the follower stays routed.
func TestRouterQueryErrorsDoNotTripBreaker(t *testing.T) {
	for name, queryErr := range map[string]error{
		"unsafe":   everr.ErrUnsafe,
		"canceled": everr.ErrCanceled,
		"deadline": everr.ErrDeadline,
	} {
		t.Run(name, func(t *testing.T) {
			c, _, _ := newCluster(t, 1)
			r := NewRouter(c)
			var attempts atomic.Int64
			failing := func(_ context.Context, n Node) (any, error) {
				attempts.Add(1)
				return nil, queryErr
			}
			for i := 0; i < 2*breakerThreshold; i++ {
				if _, err := r.Read(context.Background(), failing); !errors.Is(err, queryErr) {
					t.Fatalf("read %d: %v, want %v", i, err, queryErr)
				}
			}
			if got := attempts.Load(); got != 2*breakerThreshold {
				t.Fatalf("%d attempts for %d reads: a query failure was rerouted", got, 2*breakerThreshold)
			}
			v, err := r.Read(context.Background(), func(_ context.Context, n Node) (any, error) {
				return n.ID(), nil
			})
			if err != nil || v.(string) != "n1" {
				t.Fatalf("follower skipped after query errors: v=%v err=%v", v, err)
			}
		})
	}
}

func TestNodeFaultClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{everr.ErrCanceled, false},
		{everr.ErrDeadline, false},
		{everr.ErrBudget, false},
		{everr.ErrUnsafe, false},
		{everr.ErrPlan, false},
		{everr.ErrStale, true},
		{everr.ErrOverloaded, true},
		{everr.ErrPanic, true},
		{everr.ErrFenced, true},
		{everr.ErrNotLeader, true},
		{errors.New("dial tcp: connection refused"), true},
	} {
		if got := nodeFault(tc.err); got != tc.want {
			t.Errorf("nodeFault(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRejoinReadmitsRepairedNode(t *testing.T) {
	c, leader, _ := newCluster(t, 5, 3)
	// Depose the leader so it drops out of the routing set.
	leader.setDown(true)
	waitFailovers(t, c, 1)
	if c.Leader() == Node(leader) {
		t.Fatal("deposed leader still leads")
	}
	for _, f := range c.Followers() {
		if f == Node(leader) {
			t.Fatal("deposed leader still in the follower set")
		}
	}

	// Rejoin the repaired ex-leader: into the follower rotation, sorted
	// by ID.
	leader.setDown(false)
	c.Rejoin(leader)
	fs := c.Followers()
	found := false
	for i, f := range fs {
		if f == Node(leader) {
			found = true
		}
		if i > 0 && fs[i-1].ID() > f.ID() {
			t.Fatalf("followers unsorted after rejoin: %s before %s", fs[i-1].ID(), f.ID())
		}
	}
	if !found {
		t.Fatal("rejoined node is not in the follower rotation")
	}

	// Idempotent: rejoining an existing follower must not duplicate it,
	// and rejoining the current leader must not demote it.
	before := len(c.Followers())
	c.Rejoin(leader)
	if got := len(c.Followers()); got != before {
		t.Fatalf("double rejoin grew the follower set: %d -> %d", before, got)
	}
	cur := c.Leader()
	c.Rejoin(cur)
	if c.Leader() != cur {
		t.Fatal("rejoining the leader changed leadership")
	}
	for _, f := range c.Followers() {
		if f == cur {
			t.Fatal("rejoining the leader demoted it to a follower")
		}
	}
}

// manualCoordinator coordinates leader and followers with a probe loop
// that never fires, so a test drives failover() itself, step by step.
func manualCoordinator(t *testing.T, leader *fakeNode, followers ...*fakeNode) *Coordinator {
	t.Helper()
	nodes := make([]Node, len(followers))
	for i, f := range followers {
		nodes[i] = f
	}
	c := NewCoordinator(leader, nodes, Config{Heartbeat: time.Hour})
	t.Cleanup(c.Close)
	return c
}

func (n *fakeNode) setGen(g uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen = g
}

// A leader partitioned from the coordinator keeps accepting writes
// until it is fenced, and its last ones reach followers unevenly: here
// n1 leads before the fence, but n2 alone holds the old branch's final
// generation once the fence has drained it. The successor must be
// chosen from the post-fence generations — choosing n1 would drop a
// generation every follower but n1 may already have acknowledged.
func TestFailoverFencesBeforeChoosingSuccessor(t *testing.T) {
	var log []string
	leader := &fakeNode{id: "n0", durable: true, epoch: 3, log: &log}
	n1 := &fakeNode{id: "n1", durable: true, gen: 10, epoch: 3, log: &log}
	n2 := &fakeNode{id: "n2", durable: true, gen: 9, epoch: 3, log: &log}
	leader.onFence = func() { n2.setGen(11) }
	c := manualCoordinator(t, leader, n1, n2)

	if !c.failover() {
		t.Fatal("failover did not commit")
	}
	if got := c.Leader().ID(); got != "n2" {
		t.Fatalf("promoted %s, want n2 (generation 11 after the fence)", got)
	}
	want := []string{"fence n0@4", "promote n2"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v (fence before promote, at the epoch the successor mints)", log, want)
	}
	if got := n2.Epoch(); got != 4 {
		t.Fatalf("successor epoch %d, want 4", got)
	}
}

// A fence error from a leader that still answers probes means it may
// still be writable: the attempt must abort with nothing promoted. The
// same error from a leader that is down does not block the failover.
func TestFailoverAbortsWhenReachableLeaderRefusesFence(t *testing.T) {
	leader := &fakeNode{id: "n0", durable: true, fenceErr: errors.New("epoch file: disk full")}
	n1 := &fakeNode{id: "n1", durable: true, gen: 5}
	c := manualCoordinator(t, leader, n1)

	if c.failover() {
		t.Fatal("failover committed past a reachable leader's fence error")
	}
	if c.Leader() != Node(leader) || n1.promoted || c.Failovers() != 0 {
		t.Fatalf("aborted attempt changed state: leader %s, n1 promoted %v, failovers %d",
			c.Leader().ID(), n1.promoted, c.Failovers())
	}

	leader.setDown(true)
	if !c.failover() {
		t.Fatal("an unreachable leader's fence error blocked the failover")
	}
	if got := c.Leader().ID(); got != "n1" {
		t.Fatalf("promoted %s, want n1", got)
	}
}

// The acknowledgement rule holds against the follower set of the
// leader the write went to. Here n2 applied generation 10 and then
// crashed; a failover that begins mid-wait promotes n1 at 9 and leaves
// no follower at all, so "every current follower holds 10" would be
// vacuously true — and generation 10 lost on the new leader.
func TestWaitReplicatedRefusesAckAcrossFailover(t *testing.T) {
	leader := &fakeNode{id: "n0", durable: true, gen: 10}
	n1 := &fakeNode{id: "n1", durable: true, gen: 9}
	n2 := &fakeNode{id: "n2", durable: true, gen: 10, down: true}
	c := manualCoordinator(t, leader, n1, n2)

	if !c.WaitReplicated(c.View(), 9, 0, time.Minute) {
		t.Fatal("generation 9, held by every follower, was not acknowledged")
	}

	v := c.View()
	n1.onGeneration = func() {
		if !c.failover() {
			t.Error("failover did not commit")
		}
	}
	if c.WaitReplicated(v, 10, 0, time.Minute) {
		t.Fatalf("generation 10 acknowledged across a failover to %s at generation %d",
			c.Leader().ID(), c.Leader().Generation())
	}
	// A view taken before a failover never acknowledges anything.
	if c.WaitReplicated(v, 0, 0, time.Minute) {
		t.Fatal("a stale view acknowledged a write")
	}
}
