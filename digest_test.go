package chainsplit

// The anti-entropy state digest: a chained checksum over the fact
// stream that must be bit-identical on every node holding the same
// generation, no matter which mix of live appends, WAL replay,
// replication tailing and snapshot bootstrap built the state — and
// that a quarantine repair (ResetReplica) rewinds to the empty seed so
// a reseeded node re-earns it from the leader's stream.

import (
	"testing"
	"time"

	"chainsplit/internal/obsv"
)

// digestOf reads a database's pinned (generation, digest) pair.
func digestOf(db *DB) (uint64, uint64) { return db.inner.StateDigest() }

func TestStateDigestAgreesAcrossReplication(t *testing.T) {
	checkLeaks := leakGuard(t)
	leader, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.Exec("edge(1, 2). edge(2, 3)."); err != nil {
		t.Fatal(err)
	}
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	verified := obsv.DigestsVerified.Value()
	follower, err := OpenFollower(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := leader.LoadFacts("edge", [][]Term{{Int(3), Int(4)}, {Int(4), Int(5)}}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, follower, leader)

	lg, ld := digestOf(leader)
	fg, fd := digestOf(follower)
	if lg != fg || ld != fd {
		t.Fatalf("digest diverged without corruption: leader (%d, %016x), follower (%d, %016x)", lg, ld, fg, fd)
	}

	// The wire verifies this on its own cadence: the leader ships a
	// digest claim when idle, the follower checks it against its own
	// state. Wait for at least one verified claim.
	deadline := time.Now().Add(10 * time.Second)
	for obsv.DigestsVerified.Value() == verified {
		if time.Now().After(deadline) {
			t.Fatal("anti-entropy digest was never verified on the wire")
		}
		time.Sleep(time.Millisecond)
	}
	if follower.inner.State().Quarantined {
		t.Fatal("matching states reported a divergence and quarantined the follower")
	}
	checkLeaks()
}

func TestStateDigestAgreesAcrossSnapshotBootstrap(t *testing.T) {
	checkLeaks := leakGuard(t)
	// SnapshotEvery 1 makes the leader prune aggressively, so a
	// follower arriving at generation 0 cannot be served a record tail
	// and must bootstrap from a shipped snapshot — the digest is then
	// re-folded from the snapshot image, not inherited.
	leader, err := OpenWith(Config{Dir: t.TempDir(), SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for i := 0; i < 8; i++ {
		if err := leader.LoadFacts("n", [][]Term{{Int(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	follower, err := OpenFollower(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitCaughtUp(t, follower, leader)

	lg, ld := digestOf(leader)
	fg, fd := digestOf(follower)
	if lg != fg || ld != fd {
		t.Fatalf("snapshot bootstrap diverged the digest: leader (%d, %016x), follower (%d, %016x)", lg, ld, fg, fd)
	}
	checkLeaks()
}

func TestStateDigestStableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWith(Config{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("p(a). p(b). q(1, 2)."); err != nil {
		t.Fatal(err)
	}
	gen, digest := digestOf(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// WAL replay must fold the same digest the live appends did.
	db, err = OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if g, d := digestOf(db); g != gen || d != digest {
		t.Fatalf("reopen changed the digest: (%d, %016x) -> (%d, %016x)", gen, digest, g, d)
	}
}

func TestResetReplicaWipesAndReseeds(t *testing.T) {
	checkLeaks := leakGuard(t)
	leader, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.Exec("n(1). n(2). n(3)."); err != nil {
		t.Fatal(err)
	}
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	follower, err := OpenFollower(addr, Config{Dir: fdir})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitCaughtUp(t, follower, leader)
	epoch := follower.Epoch()

	// Quarantine-and-reseed by hand, the sequence the cluster repair
	// goroutine runs: stop the stream, wipe, re-point, catch up.
	follower.inner.Quarantine()
	follower.stopSession()
	if err := follower.inner.ResetReplica(); err != nil {
		t.Fatal(err)
	}
	if g := follower.Generation(); g != 0 {
		t.Fatalf("reset left generation %d, want 0", g)
	}
	if got := follower.Epoch(); got != epoch {
		t.Fatalf("reset lost epoch knowledge: %d, want %d", got, epoch)
	}
	if follower.Fenced() {
		t.Fatal("reset left the node fenced")
	}
	if err := follower.retarget(addr); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, follower, leader)
	follower.inner.ClearQuarantine()
	lg, ld := digestOf(leader)
	fg, fd := digestOf(follower)
	if lg != fg || ld != fd {
		t.Fatalf("reseed diverged: leader (%d, %016x), follower (%d, %016x)", lg, ld, fg, fd)
	}
	res, err := follower.Query("?- n(X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3 {
		t.Fatalf("reseeded follower holds %d facts, want 3", len(res.Tuples))
	}
	checkLeaks()
}
