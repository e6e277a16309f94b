package chainsplit

// Cluster chaos soak: a seeded 7-node replica group survives a string
// of automated failovers — leader crashes (Close under concurrent
// load) and coordinator partitions (the cluster.probe fault site) —
// while a writer appends marks through the routed write path and
// readers hammer the routed read path. The invariants:
//
//   - no acknowledged durable generation is ever lost: a write counts
//     as acknowledged only once EVERY follower of the leader that
//     accepted it has applied it, before any failover began deposing
//     that leader (failover fences first and then promotes the
//     most-caught-up follower, so whatever all followers hold, the next
//     leader holds too), and after every failover the new leader's
//     generation covers every acknowledged one;
//   - no two nodes ever accept a write in the same epoch: each
//     accepted write is recorded against the accepting node's epoch,
//     and each epoch must map to exactly one node ID;
//   - a live deposed leader fails writes with ErrFenced — deposed by
//     partition, it is still up, still durable, and must refuse to
//     acknowledge writes the successor's history will never contain;
//   - every routed read is a contiguous mark prefix {0..g-1} of some
//     generation g, or a typed error (ErrStale / ErrOverloaded) —
//     never a torn or silently wrong answer;
//   - post-soak, every node directory passes fsck and no goroutine
//     survives Close.
//
// Seed and duration come from CHAINSPLIT_SOAK_SEED and
// CHAINSPLIT_SOAK_DURATION, as for the other soaks; the soak runs
// until it has committed at least 5 failovers either way.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chainsplit/internal/faultinject"
)

func TestClusterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	seed := soakEnvInt64("CHAINSPLIT_SOAK_SEED", time.Now().UnixNano())
	duration := time.Duration(soakEnvInt64("CHAINSPLIT_SOAK_DURATION",
		int64(2*time.Second)))
	t.Logf("cluster soak: seed=%d duration=%v (override with CHAINSPLIT_SOAK_SEED / CHAINSPLIT_SOAK_DURATION)", seed, duration)
	defer faultinject.Reset()

	checkLeaks := leakGuard(t)
	rng := rand.New(rand.NewSource(seed ^ 0x617e))

	// 7 nodes: every failover consumes one (the deposed leader leaves
	// the routing set), and the target of >= 5 failovers needs slack
	// for a partition burst deposing two leaders back to back.
	const replicas = 7
	const wantFailovers = 5
	dir := t.TempDir()
	cl, err := OpenCluster(Config{
		Dir:          dir,
		MaxStaleness: 250 * time.Millisecond,
		Cluster: &ClusterConfig{
			Replicas:     replicas,
			Heartbeat:    10 * time.Millisecond,
			SuspectAfter: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Generation 1 carries mark 0; every write appends the accepting
	// leader's current generation as the next mark, so generation g
	// holds exactly the marks {0..g-1} on every replica.
	if err := cl.Exec("m(0)."); err != nil {
		t.Fatal(err)
	}
	cl.WaitReplicated(cl.Generation(), 0, 10*time.Second)

	var (
		ackedGen   atomic.Uint64 // highest fully-replicated generation
		writes     atomic.Int64
		acked      atomic.Int64
		staleSheds atomic.Int64
		stop       = make(chan struct{})
		wg         sync.WaitGroup

		epochMu      sync.Mutex
		epochWriters = map[uint64]string{} // epoch -> the one node that accepted writes in it
	)
	ackedGen.Store(cl.Generation())
	epochMu.Lock()
	epochWriters[cl.Epoch()] = cl.leaderNode().ID()
	epochMu.Unlock()

	// Writer: one mark per write, always derived from the generation
	// of the node being written, retrying across leadership churn.
	// ErrFenced, ErrNotLeader and a freshly killed leader are the
	// expected shapes of a failover winning the race; anything else is
	// a real failure.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// The view pins the leader this write goes to, so the ack
			// below is judged against that leader's followers.
			v := cl.coord.View()
			n := v.Leader.(*clusterNode)
			k := n.db.Generation()
			err := n.db.LoadFacts("m", [][]Term{{Int(int64(k))}})
			if err != nil {
				if errors.Is(err, ErrFenced) || errors.Is(err, ErrNotLeader) || n.db.isClosed() {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				t.Errorf("writer: %v", err)
				return
			}
			writes.Add(1)
			// The accepting node's epoch is stable while it leads;
			// record it for the one-writer-per-epoch invariant.
			ep := n.db.Epoch()
			epochMu.Lock()
			if prev, ok := epochWriters[ep]; ok && prev != n.ID() {
				t.Errorf("split brain: nodes %s and %s both accepted writes in epoch %d", prev, n.ID(), ep)
			} else {
				epochWriters[ep] = n.ID()
			}
			epochMu.Unlock()
			// Acknowledge only once every follower of the accepting
			// leader holds the write before any failover began deposing
			// it: failover fences, then promotes the most-caught-up
			// follower, so an acknowledged generation is on whichever
			// node it promotes.
			g := k + 1
			if cl.coord.WaitReplicated(v, g, 0, 2*time.Second) {
				for {
					cur := ackedGen.Load()
					if g <= cur || ackedGen.CompareAndSwap(cur, g) {
						break
					}
				}
				acked.Add(1)
			}
		}
	}()

	// Readers: the routed read path under churn. Every outcome is a
	// contiguous mark prefix or a typed shed.
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed + int64(r)*31))
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := cl.Query("?- m(K).")
				switch {
				case err == nil:
					checkMarkPrefix(t, fmt.Sprintf("reader-%d", r), res)
				case errors.Is(err, ErrStale):
					staleSheds.Add(1)
				case errors.Is(err, ErrOverloaded):
				default:
					t.Errorf("reader-%d: read failed outside the taxonomy: %v", r, err)
					return
				}
				time.Sleep(time.Duration(rrng.Intn(3)) * time.Millisecond)
			}
		}()
	}

	// Chaos driver: depose leaders one at a time until the failover
	// target is met, alternating randomly between hard crashes (Close
	// under load) and coordinator partitions (probe fault). After each
	// committed failover the safety invariants are checked before the
	// next fault is injected.
	deadline := time.Now().Add(duration + 30*time.Second)
	var crashes, partitions int
	for cl.Failovers() < wantFailovers {
		if time.Now().After(deadline) {
			t.Fatalf("soak stalled at %d failovers, want %d", cl.Failovers(), wantFailovers)
		}
		old := cl.leaderNode()
		before := cl.Failovers()
		partition := rng.Intn(2) == 1
		if partition {
			partitions++
			faultinject.Set(faultinject.SiteClusterProbe, func() error {
				return errors.New("soak: injected coordinator partition")
			})
		} else {
			crashes++
			if err := old.db.Close(); err != nil {
				t.Fatalf("crashing the leader: %v", err)
			}
		}
		for cl.Failovers() <= before {
			if time.Now().After(deadline) {
				t.Fatalf("failover never committed (crashes=%d partitions=%d)", crashes, partitions)
			}
			time.Sleep(time.Millisecond)
		}
		if partition {
			faultinject.Clear(faultinject.SiteClusterProbe)
			// The deposed leader is alive and durable — and must be
			// fenced: direct writes fail typed, never acknowledged.
			if err := old.db.Exec("m(bogus)."); !errors.Is(err, ErrFenced) {
				t.Errorf("live deposed leader accepted a write: err = %v, want ErrFenced", err)
			}
		}
		// No acknowledged generation lost: the new leader's history
		// covers everything that was ever fully replicated.
		ack := ackedGen.Load()
		if got := cl.Generation(); got < ack {
			t.Errorf("failover %d lost acknowledged generation %d (new leader at %d)", cl.Failovers(), ack, got)
		}
		// Let the survivors re-point and breathe between faults.
		time.Sleep(time.Duration(50+rng.Intn(100)) * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	faultinject.Reset()

	// Post-soak: the cluster still serves writes end to end...
	finalGen := cl.Generation()
	if err := cl.LoadFacts("m", [][]Term{{Int(int64(finalGen))}}); err != nil {
		t.Fatalf("post-soak write: %v", err)
	}
	// ...every survivor catches up past everything acknowledged...
	if !cl.WaitReplicated(ackedGen.Load(), 0, 10*time.Second) {
		t.Errorf("followers never converged past acknowledged generation %d", ackedGen.Load())
	}
	// ...and the leader's own read is the full contiguous prefix.
	res, err := cl.Leader().Query("?- m(K).")
	if err != nil {
		t.Fatalf("post-soak leader read: %v", err)
	}
	checkMarkPrefix(t, "post-soak-leader", res)
	if want := cl.Leader().Generation(); uint64(len(res.Tuples)) != want {
		t.Errorf("post-soak leader holds %d marks, want %d", len(res.Tuples), want)
	}

	t.Logf("cluster soak: %d failovers (%d crashes, %d partitions), %d writes (%d acked), %d stale sheds, final generation %d, final epoch %d",
		cl.Failovers(), crashes, partitions, writes.Load(), acked.Load(), staleSheds.Load(), cl.Generation(), cl.Epoch())

	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Every node directory — survivors, crashed and deposed alike —
	// recovers to a consistent store: graceful Close never tears the
	// log, and fencing state is itself durable.
	for i := 0; i < replicas; i++ {
		report, ok, err := Fsck(filepath.Join(dir, fmt.Sprintf("node%d", i)))
		if err != nil || !ok {
			t.Errorf("post-soak fsck of node%d: ok=%v err=%v\n%s", i, ok, err, report)
		}
	}

	checkLeaks()
}
