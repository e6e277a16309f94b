package chainsplit

// Replica chaos soak: seeded cycles of leader-crash / partition / lag /
// promote under concurrent replicated reads. Each cycle a leader serves
// its WAL to a durable follower and a staleness-bounded in-memory
// follower while a chaos agent flips faults at the replication network
// sites (send corruption and errors, receive errors, link lag); at the
// end of the cycle the leader "crashes" (Close), the durable follower
// is promoted at exactly its last durable generation, and the next
// cycle runs against the promoted node. The invariants:
//
//   - every follower read is bit-identical to SOME leader generation —
//     the mark relation in any published generation g is exactly
//     {0 .. g-1}, so a read that is not a contiguous prefix is a torn
//     or corrupted view — or a typed ErrStale; never silently wrong;
//   - a follower's generation never passes the leader's (prefix rule);
//   - promotion never invents or drops a durable generation;
//   - the promoted node's re-logged WAL passes fsck at the end;
//   - no goroutine leaks after every handle is closed.
//
// Seed and duration come from CHAINSPLIT_SOAK_SEED and
// CHAINSPLIT_SOAK_DURATION, as for the other soaks.

import (
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chainsplit/internal/faultinject"
)

// checkMarkPrefix asserts a mark read is a contiguous prefix {0..n-1}:
// bit-identical to the leader's state at generation n.
func checkMarkPrefix(t *testing.T, who string, res *Result) {
	t.Helper()
	seen := make(map[string]bool, len(res.Tuples))
	for _, tup := range res.Tuples {
		seen[tup[0].String()] = true
	}
	if len(seen) != len(res.Tuples) {
		t.Errorf("%s: duplicate marks in a %d-row read", who, len(res.Tuples))
		return
	}
	for i := 0; i < len(res.Tuples); i++ {
		if !seen[strconv.Itoa(i)] {
			t.Errorf("%s: %d marks but %d missing — not a generation prefix", who, len(res.Tuples), i)
			return
		}
	}
}

func TestReplicaChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	seed := soakEnvInt64("CHAINSPLIT_SOAK_SEED", time.Now().UnixNano())
	duration := time.Duration(soakEnvInt64("CHAINSPLIT_SOAK_DURATION",
		int64(2*time.Second)))
	t.Logf("replica soak: seed=%d duration=%v (override with CHAINSPLIT_SOAK_SEED / CHAINSPLIT_SOAK_DURATION)", seed, duration)
	defer faultinject.Reset()

	checkLeaks := leakGuard(t)
	rng := rand.New(rand.NewSource(seed ^ 0x4e7f))
	deadline := time.Now().Add(duration)

	leader, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Generation 1 carries mark 0; every generation after adds the next
	// mark, so generation g holds exactly marks {0..g-1}.
	mustExec(t, leader, "m(0).")

	var staleSheds, corruptions, promotions int64
	cycles := 0
	for cycles == 0 || time.Now().Before(deadline) {
		cycles++
		addr, err := leader.ServeReplication("127.0.0.1:0")
		if err != nil {
			t.Fatalf("cycle %d: serve: %v", cycles, err)
		}
		durableF, err := OpenFollower(addr, Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("cycle %d: durable follower: %v", cycles, err)
		}
		boundedF, err := OpenFollower(addr, Config{MaxStaleness: 75 * time.Millisecond})
		if err != nil {
			t.Fatalf("cycle %d: bounded follower: %v", cycles, err)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup

		// Replicated readers: one per node. Every read is a correct
		// prefix or a typed shed — nothing else.
		for _, node := range []struct {
			who string
			db  *DB
		}{{"leader", leader}, {"durable-follower", durableF}, {"bounded-follower", boundedF}} {
			node := node
			rrng := rand.New(rand.NewSource(seed + int64(cycles*7+len(node.who))))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if node.db.IsFollower() {
						if fgen := node.db.Generation(); fgen > leader.Generation() {
							// The leader publishes after logging, and the
							// serving tail reads the log: a shipped record
							// can land on a follower in the instant between
							// the leader's fsync and its own publish. The
							// inversion is bounded by that in-flight
							// mutation — it must resolve the moment the
							// leader's publish completes. Anything that
							// persists is true divergence.
							rdl := time.Now().Add(time.Second)
							for leader.Generation() < fgen {
								if time.Now().After(rdl) {
									t.Errorf("%s: generation %d passed the leader's %d and stayed there", node.who, fgen, leader.Generation())
									return
								}
								time.Sleep(100 * time.Microsecond)
							}
						}
					}
					res, err := node.db.Query("?- m(K).")
					switch {
					case err == nil:
						checkMarkPrefix(t, node.who, res)
					case errors.Is(err, ErrStale):
						atomic.AddInt64(&staleSheds, 1)
					default:
						t.Errorf("%s: read failed outside the taxonomy: %v", node.who, err)
						return
					}
					time.Sleep(time.Duration(rrng.Intn(3)) * time.Millisecond)
				}
			}()
		}

		// Chaos agent: partitions (send/recv errors), corruption (bit
		// flips in shipped frames), and link lag, flipping on and off
		// at the replication network sites.
		wg.Add(1)
		go func() {
			defer wg.Done()
			crng := rand.New(rand.NewSource(seed + int64(cycles)*101))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch crng.Intn(6) {
				case 0: // outbound partition
					faultinject.SetData(faultinject.SiteReplicaSend, func([]byte) ([]byte, error) {
						return nil, errors.New("soak: injected send partition")
					})
				case 1: // inbound partition
					faultinject.SetData(faultinject.SiteReplicaRecv, func([]byte) ([]byte, error) {
						return nil, errors.New("soak: injected recv partition")
					})
				case 2: // corruption on the wire
					atomic.AddInt64(&corruptions, 1)
					bit := byte(1 << crng.Intn(8))
					off := crng.Intn(64)
					faultinject.SetData(faultinject.SiteReplicaSend, func(b []byte) ([]byte, error) {
						if len(b) == 0 {
							return b, nil
						}
						mangled := append([]byte(nil), b...)
						mangled[off%len(mangled)] ^= bit
						return mangled, nil
					})
				case 3: // link lag
					lag := time.Duration(1+crng.Intn(5)) * time.Millisecond
					faultinject.Set(faultinject.SiteReplicaLag, func() error {
						time.Sleep(lag)
						return nil
					})
				case 4:
					faultinject.Clear(faultinject.SiteReplicaSend)
					faultinject.Clear(faultinject.SiteReplicaRecv)
				case 5:
					faultinject.Clear(faultinject.SiteReplicaLag)
				}
				time.Sleep(time.Duration(5+crng.Intn(15)) * time.Millisecond)
			}
		}()

		// Writer: the next mark per generation, with occasional
		// checkpoints so reconnecting followers exercise the shipped-
		// snapshot bootstrap path, for a random slice of the soak.
		cycleEnd := time.Now().Add(time.Duration(200+rng.Intn(300)) * time.Millisecond)
		for time.Now().Before(cycleEnd) {
			if err := leader.LoadFacts("m", [][]Term{{Int(int64(leader.Generation()))}}); err != nil {
				t.Fatalf("cycle %d: leader write: %v", cycles, err)
			}
			if rng.Intn(8) == 0 {
				if err := leader.Checkpoint(); err != nil {
					t.Fatalf("cycle %d: checkpoint: %v", cycles, err)
				}
			}
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}

		close(stop)
		wg.Wait()
		faultinject.Reset()

		// Faults healed: the durable follower must converge to the
		// leader's exact state.
		waitCaughtUp(t, durableF, leader)
		if got, want := answers(t, durableF, "?- m(K)."), answers(t, leader, "?- m(K)."); got != want {
			t.Fatalf("cycle %d: converged follower differs from leader:\nleader:\n%s\nfollower:\n%s", cycles, want, got)
		}

		// Failover: the leader crashes; the durable follower is
		// promoted at exactly its last durable generation and serves
		// the next cycle.
		if err := boundedF.Close(); err != nil {
			t.Fatalf("cycle %d: bounded follower close: %v", cycles, err)
		}
		if err := leader.Close(); err != nil {
			t.Fatalf("cycle %d: leader close: %v", cycles, err)
		}
		promGen := durableF.Generation()
		if err := durableF.Promote(); err != nil {
			t.Fatalf("cycle %d: promote: %v", cycles, err)
		}
		promotions++
		if durableF.IsFollower() {
			t.Fatalf("cycle %d: promoted node still a follower", cycles)
		}
		if got := durableF.Generation(); got != promGen {
			t.Fatalf("cycle %d: promotion moved the generation %d -> %d", cycles, promGen, got)
		}
		leader = durableF
	}

	// The last promoted node answers exactly, and its re-logged WAL —
	// written entirely from shipped records — is fsck-clean.
	finalGen := leader.Generation()
	res, err := leader.Query("?- m(K).")
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if uint64(len(res.Tuples)) != finalGen {
		t.Fatalf("final: %d marks at generation %d", len(res.Tuples), finalGen)
	}
	checkMarkPrefix(t, "final-leader", res)
	dir := leader.inner.DurableDir()
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	if dir != "" {
		report, ok, err := Fsck(dir)
		if err != nil || !ok {
			t.Fatalf("post-soak fsck of the promoted node: ok=%v err=%v\n%s", ok, err, report)
		}
	}

	t.Logf("replica soak: %d cycles, %d promotions, %d corruption faults, %d stale sheds, final generation %d",
		cycles, promotions, corruptions, atomic.LoadInt64(&staleSheds), finalGen)

	checkLeaks()
}
