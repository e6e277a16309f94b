package chainsplit

// Corruption chaos soak: a seeded 5-node replica group survives bits
// flipped on a live follower's disk mid-soak. Each round the driver
// corrupts one payload byte inside a settled frame of a healthy
// follower's write-ahead log while the writer keeps appending marks
// through the routed write path and readers hammer the routed read
// path. The self-healing pipeline must carry each round end to end —
// the online scrubber detects the bad frame, the node quarantines
// itself, the repair goroutine wipes and re-seeds it from the leader
// through the ordinary resume handshake, and the node rejoins the
// routing set — with the invariants:
//
//   - no acknowledged durable generation is ever lost: after every
//     completed reseed, every follower (the repaired node included)
//     converges past everything that was acknowledged;
//   - no answer is ever served from a corrupt frame: every routed read
//     is a contiguous mark prefix {0..g-1} of some generation g, or a
//     typed shed (ErrStale / ErrOverloaded / ErrQuarantined) — never a
//     torn or silently wrong answer;
//   - the leader is never quarantined (only followers are corrupted,
//     so a leader quarantine would be a scrubber false positive) and
//     writes keep flowing throughout;
//   - post-soak, every node directory passes the strict offline Fsck:
//     the corruption was repaired by wipe-and-reseed, not papered
//     over, and no goroutine survives Close.
//
// Seed and duration come from CHAINSPLIT_SOAK_SEED and
// CHAINSPLIT_SOAK_DURATION, as for the other soaks; the soak runs
// until it has completed at least 3 reseeds either way.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chainsplit/internal/wal"
)

func TestCorruptionChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	seed := soakEnvInt64("CHAINSPLIT_SOAK_SEED", time.Now().UnixNano())
	duration := time.Duration(soakEnvInt64("CHAINSPLIT_SOAK_DURATION",
		int64(2*time.Second)))
	t.Logf("corruption soak: seed=%d duration=%v (override with CHAINSPLIT_SOAK_SEED / CHAINSPLIT_SOAK_DURATION)", seed, duration)

	checkLeaks := leakGuard(t)
	rng := rand.New(rand.NewSource(seed ^ 0x5c2b))

	const replicas = 5
	const wantReseeds = 3
	dir := t.TempDir()
	cl, err := OpenCluster(Config{
		Dir:          dir,
		MaxStaleness: 250 * time.Millisecond,
		// Frequent scrub passes keep detection latency well under a
		// round; rare snapshots keep the corrupted segment from being
		// pruned out from under the scrubber mid-round.
		ScrubEvery:    10 * time.Millisecond,
		SnapshotEvery: 1 << 20,
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
		ackedGen   atomic.Uint64 // highest generation replicated to all-but-one followers
		writes     atomic.Int64
		acked      atomic.Int64
		staleSheds atomic.Int64
		quarSheds  atomic.Int64
		stop       = make(chan struct{})
		wg         sync.WaitGroup
	)
	ackedGen.Store(cl.Generation())

	// Writer: one mark per write, derived from the leader's generation.
	// No leader fault is ever injected here, so unlike the cluster soak
	// the tolerance set is narrow: a spurious failover (ErrFenced /
	// ErrNotLeader) is survivable churn, but ErrQuarantined from the
	// leader would mean the scrubber false-positived on a clean store —
	// a real failure. Acknowledgement waits for all-but-one followers,
	// so acks keep flowing while one node is mid-reseed at generation 0.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
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
			g := k + 1
			if cl.coord.WaitReplicated(v, g, replicas-2, 2*time.Second) {
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

	// Readers: the routed read path while nodes drop into quarantine
	// and come back. Every outcome is a contiguous mark prefix or a
	// typed shed; ErrQuarantined surfaces only if every candidate and
	// the leader fallback shed at once, which is a legal (if rare)
	// outcome while a repair is in flight.
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed + int64(r)*37))
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
				case errors.Is(err, ErrQuarantined):
					quarSheds.Add(1)
				case errors.Is(err, ErrOverloaded):
				default:
					t.Errorf("reader-%d: read failed outside the taxonomy: %v", r, err)
					return
				}
				time.Sleep(time.Duration(rrng.Intn(3)) * time.Millisecond)
			}
		}()
	}

	// Chaos driver: flip one payload byte in a settled frame of a
	// healthy follower's log, then wait for the full detect → quarantine
	// → reseed → rejoin round to complete. A flip the scrubber never got
	// to see (the segment was replaced under it) is re-dealt after a
	// grace period rather than failing the soak.
	deadline := time.Now().Add(duration + 30*time.Second)
	flips := 0
	for cl.Reseeds() < wantReseeds {
		if time.Now().After(deadline) {
			t.Fatalf("soak stalled at %d reseeds after %d flips, want %d", cl.Reseeds(), flips, wantReseeds)
		}
		victim := pickCorruptionVictim(cl, rng)
		if victim == nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		before := cl.Reseeds()
		if !flipLiveFrame(t, filepath.Join(dir, victim.id), rng) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		flips++
		grace := time.Now().Add(2 * time.Second)
		for cl.Reseeds() <= before {
			if time.Now().After(grace) || time.Now().After(deadline) {
				break // flip lost (pruned / unread); deal another
			}
			time.Sleep(time.Millisecond)
		}
		if cl.Reseeds() <= before {
			continue
		}
		// Round complete: the leader was never the victim, so nothing
		// acknowledged can be behind it...
		if got, ack := cl.Generation(), ackedGen.Load(); got < ack {
			t.Errorf("reseed %d lost acknowledged generation %d (leader at %d)", cl.Reseeds(), ack, got)
		}
		// ...and every follower — the freshly reseeded node included —
		// converges past everything acknowledged before the next fault.
		if !cl.WaitReplicated(ackedGen.Load(), 0, 10*time.Second) {
			t.Fatalf("reseed %d: followers never converged past acknowledged generation %d", cl.Reseeds(), ackedGen.Load())
		}
		time.Sleep(time.Duration(20+rng.Intn(50)) * time.Millisecond)
	}

	close(stop)
	wg.Wait()

	// Post-soak: the cluster still serves writes end to end, every
	// follower converges, and every node answers with the full
	// contiguous mark prefix — no replica retained a corrupt answer.
	finalGen := cl.Generation()
	if err := cl.LoadFacts("m", [][]Term{{Int(int64(finalGen))}}); err != nil {
		t.Fatalf("post-soak write: %v", err)
	}
	if !cl.WaitReplicated(cl.Generation(), 0, 10*time.Second) {
		t.Errorf("followers never converged to final generation %d", cl.Generation())
	}
	for _, n := range cl.nodes {
		res, err := n.db.Query("?- m(K).")
		if err != nil {
			t.Errorf("post-soak read on %s: %v", n.id, err)
			continue
		}
		checkMarkPrefix(t, "post-soak-"+n.id, res)
		if want := n.db.Generation(); uint64(len(res.Tuples)) != want {
			t.Errorf("post-soak %s holds %d marks, want %d", n.id, len(res.Tuples), want)
		}
	}

	t.Logf("corruption soak: %d flips, %d reseeds, %d writes (%d acked), %d stale sheds, %d quarantine sheds, final generation %d",
		flips, cl.Reseeds(), writes.Load(), acked.Load(), staleSheds.Load(), quarSheds.Load(), cl.Generation())

	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Every node directory recovers to a consistent store under the
	// strict offline check: wipe-and-reseed repaired the corruption for
	// real — no flipped frame survives anywhere.
	for i := 0; i < replicas; i++ {
		report, ok, err := Fsck(filepath.Join(dir, fmt.Sprintf("node%d", i)))
		if err != nil || !ok {
			t.Errorf("post-soak fsck of node%d: ok=%v err=%v\n%s", i, ok, err, report)
		}
	}

	checkLeaks()
}

// pickCorruptionVictim chooses a random follower that is healthy (not
// quarantined, not mid-repair) and has applied state worth corrupting.
// The leader is never a victim: this soak isolates the quarantine
// pipeline from failover (the cluster soak churns leadership).
func pickCorruptionVictim(cl *Cluster, rng *rand.Rand) *clusterNode {
	fs := cl.coord.Followers()
	if len(fs) == 0 {
		return nil
	}
	start := rng.Intn(len(fs))
	for i := range fs {
		n := fs[(start+i)%len(fs)].(*clusterNode)
		if n.db.inner.State().Quarantined || n.db.Generation() < 2 {
			continue
		}
		return n
	}
	return nil
}

// flipLiveFrame flips one payload byte inside a settled (non-final)
// frame of a node's live write-ahead log, in place, while the node is
// still appending to it. It reports whether a flip landed: a store
// with fewer than two settled frames in its newest segment offers no
// frame that is guaranteed settled under the online checker's
// in-flight-append leniency, so the caller retries later.
func flipLiveFrame(t *testing.T, nodeDir string, rng *rand.Rand) bool {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(nodeDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		return false
	}
	seg := segs[len(segs)-1]
	offsets, _, err := wal.RecordOffsets(seg)
	if err != nil || len(offsets) < 2 {
		return false
	}
	// Any frame but the last is settled: more frames follow it, so the
	// scrubber can never excuse the damage as an in-flight append.
	target := offsets[rng.Intn(len(offsets)-1)]
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("opening %s for corruption: %v", seg, err)
	}
	defer f.Close()
	buf := []byte{0}
	if _, err := f.ReadAt(buf, target+12); err != nil {
		t.Fatalf("reading %s for corruption: %v", seg, err)
	}
	buf[0] ^= 0x40
	if _, err := f.WriteAt(buf, target+12); err != nil {
		t.Fatalf("flipping a byte in %s: %v", seg, err)
	}
	return true
}
