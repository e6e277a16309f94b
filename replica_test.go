package chainsplit

// Functional replication tests: leader/follower streaming, durable
// resume, snapshot bootstrap, staleness shedding, promotion, and the
// injected network faults. The randomized multi-replica chaos soak is
// TestReplicaChaosSoak in replica_soak_test.go.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"chainsplit/internal/faultinject"
	"chainsplit/internal/obsv"
	"chainsplit/internal/replica"
)

// waitCaughtUp polls until the follower's generation reaches the
// leader's generation at entry. On timeout it reports what the
// follower believes about itself, where the leader has got to, how
// often followers reconnected during the wait (process-wide counters),
// and the state of the follower's replication session.
func waitCaughtUp(t *testing.T, f, leader *DB) {
	t.Helper()
	want := leader.Generation()
	reconnects, events := obsv.ReplicaReconnects.Value(), obsv.ReconnectEvents.Value()
	deadline := time.Now().Add(10 * time.Second)
	for f.Generation() < want {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at generation %d, want %d (follower: staleness %v, follower %v, fenced %v; leader now at generation %d; "+
				"during the wait: %d reconnect attempts, %d reconnect events; %s)",
				f.Generation(), want, f.Staleness(), f.IsFollower(), f.Fenced(), leader.Generation(),
				obsv.ReplicaReconnects.Value()-reconnects, obsv.ReconnectEvents.Value()-events, sessionState(f))
		}
		time.Sleep(time.Millisecond)
	}
}

// sessionState describes db's follower session: whether its stream is
// up, and the error that ended it (nil while it still runs).
func sessionState(db *DB) string {
	db.replMu.Lock()
	s := db.repl
	db.replMu.Unlock()
	if s == nil {
		return "no replication session"
	}
	return fmt.Sprintf("session connected %v, ended by %v", s.Connected(), s.Err())
}

// answers renders a result's tuples in order, for bit-identity
// comparison across replicas.
func answers(t *testing.T, db *DB, q string) string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	out := ""
	for _, tup := range res.Tuples {
		for _, v := range tup {
			out += v.String() + "|"
		}
		out += "\n"
	}
	return out
}

func TestReplicationBasic(t *testing.T) {
	leader, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.Exec(`
		edge(a, b). edge(b, c). edge(c, d).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
	`); err != nil {
		t.Fatal(err)
	}
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	follower, err := OpenFollower(addr, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitCaughtUp(t, follower, leader)

	if !follower.IsFollower() {
		t.Fatal("follower does not report IsFollower")
	}
	if got, want := answers(t, follower, "?- path(a, Y)."), answers(t, leader, "?- path(a, Y)."); got != want {
		t.Fatalf("follower answers differ:\nleader:\n%s\nfollower:\n%s", want, got)
	}

	// Writes land on the leader and flow through.
	if err := leader.LoadFacts("edge", [][]Term{{Sym("d"), Sym("e")}}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, follower, leader)
	if got, want := answers(t, follower, "?- path(a, Y)."), answers(t, leader, "?- path(a, Y)."); got != want {
		t.Fatalf("post-write answers differ:\nleader:\n%s\nfollower:\n%s", want, got)
	}

	// Writes on the follower are refused, typed.
	if err := follower.Exec("edge(x, y)."); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower Exec: got %v, want ErrNotLeader", err)
	}
	if err := follower.LoadFacts("edge", [][]Term{{Sym("p"), Sym("q")}}); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower LoadFacts: got %v, want ErrNotLeader", err)
	}
}

func TestFollowerDurableResume(t *testing.T) {
	leader, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := leader.LoadFacts("n", [][]Term{{Int(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}

	fdir := t.TempDir()
	follower, err := OpenFollower(addr, Config{Dir: fdir})
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, follower, leader)
	gen := follower.Generation()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// More leader writes while the follower is down.
	for i := 5; i < 10; i++ {
		if err := leader.LoadFacts("n", [][]Term{{Int(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen: recover to the old durable generation, then resume the
	// stream from there and catch up.
	follower, err = OpenFollower(addr, Config{Dir: fdir})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if follower.Generation() < gen {
		t.Fatalf("reopened follower at generation %d, had reached %d", follower.Generation(), gen)
	}
	waitCaughtUp(t, follower, leader)
	if got, want := answers(t, follower, "?- n(X)."), answers(t, leader, "?- n(X)."); got != want {
		t.Fatalf("resumed follower diverged:\nleader:\n%s\nfollower:\n%s", want, got)
	}
}

func TestFollowerSnapshotBootstrap(t *testing.T) {
	// Snapshot every 4 mutations: by the time the follower connects at
	// position 0, the leader's early history is pruned and the stream
	// must start with a shipped snapshot.
	leader, err := OpenWith(Config{Dir: t.TempDir(), SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for i := 0; i < 20; i++ {
		if err := leader.LoadFacts("n", [][]Term{{Int(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	follower, err := OpenFollower(addr, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitCaughtUp(t, follower, leader)
	if got, want := answers(t, follower, "?- n(X)."), answers(t, leader, "?- n(X)."); got != want {
		t.Fatalf("bootstrapped follower diverged:\nleader:\n%s\nfollower:\n%s", want, got)
	}

	// Keep writing: the stream continues past the snapshot.
	if err := leader.LoadFacts("n", [][]Term{{Int(99)}}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, follower, leader)
	if got, want := answers(t, follower, "?- n(X)."), answers(t, leader, "?- n(X)."); got != want {
		t.Fatalf("post-bootstrap stream diverged:\nleader:\n%s\nfollower:\n%s", want, got)
	}
}

func TestPromoteFollower(t *testing.T) {
	leader, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Exec("n(1). n(2)."); err != nil {
		t.Fatal(err)
	}
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	follower, err := OpenFollower(addr, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitCaughtUp(t, follower, leader)
	wantGen := follower.Generation()

	// Leader dies; the follower is promoted at exactly its last
	// durable generation and becomes writable.
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if follower.IsFollower() {
		t.Fatal("promoted database still reports IsFollower")
	}
	if got := follower.Generation(); got != wantGen {
		t.Fatalf("promotion moved the generation: %d, want %d", got, wantGen)
	}
	if err := follower.Exec("n(3)."); err != nil {
		t.Fatalf("promoted leader refuses writes: %v", err)
	}
	if got := follower.Generation(); got != wantGen+1 {
		t.Fatalf("post-promotion write: generation %d, want %d", got, wantGen+1)
	}
	// Idempotent.
	if err := follower.Promote(); err != nil {
		t.Fatalf("second Promote: %v", err)
	}
}

func TestStalenessShedding(t *testing.T) {
	leader, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.Exec("n(1)."); err != nil {
		t.Fatal(err)
	}
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	follower, err := OpenFollower(addr, Config{MaxStaleness: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitCaughtUp(t, follower, leader)

	// Fresh: reads pass.
	if _, err := follower.Query("?- n(X)."); err != nil {
		t.Fatalf("fresh follower read: %v", err)
	}

	// Partition the receive side: heartbeats stop arriving, staleness
	// grows past the bound, reads are shed with ErrStale — typed,
	// never silently old.
	restore := faultinject.SetData(faultinject.SiteReplicaRecv, func([]byte) ([]byte, error) {
		return nil, fmt.Errorf("injected partition")
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := follower.Query("?- n(X).")
		if errors.Is(err, ErrStale) {
			break
		}
		if err != nil {
			restore()
			t.Fatalf("partitioned follower read: got %v, want ErrStale", err)
		}
		if time.Now().After(deadline) {
			restore()
			t.Fatal("follower never went stale under a partition")
		}
		time.Sleep(5 * time.Millisecond)
	}
	restore()

	// Healed: the follower reconnects, catches up, and serves again.
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, err := follower.Query("?- n(X).")
		if err == nil {
			break
		}
		if !errors.Is(err, ErrStale) {
			t.Fatalf("healed follower read: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never recovered after the partition healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStalenessHonestDuringCatchUp pins the bounded-staleness
// contract through a backlog replay: after a partition, the records a
// follower streams to catch up carry old generations, and applying
// them must NOT refresh staleness — the view is still behind the
// leader. Reads stay ErrStale until the follower actually draws level
// with the generation the leader advertises on every frame.
func TestStalenessHonestDuringCatchUp(t *testing.T) {
	leader, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.LoadFacts("n", [][]Term{{Int(0)}}); err != nil {
		t.Fatal(err)
	}
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	follower, err := OpenFollower(addr, Config{MaxStaleness: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitCaughtUp(t, follower, leader)

	// Partition the follower's receive side and pile up a backlog.
	restore := faultinject.SetData(faultinject.SiteReplicaRecv, func([]byte) ([]byte, error) {
		return nil, fmt.Errorf("injected partition")
	})
	for i := 1; i <= 200; i++ {
		if err := leader.LoadFacts("n", [][]Term{{Int(int64(i))}}); err != nil {
			restore()
			t.Fatal(err)
		}
	}
	leaderGen := leader.Generation()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := follower.Query("?- n(X).")
		if errors.Is(err, ErrStale) {
			break
		}
		if err != nil {
			restore()
			t.Fatalf("partitioned follower read: got %v, want ErrStale", err)
		}
		if time.Now().After(deadline) {
			restore()
			t.Fatal("follower never went stale under a partition")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Heal, but lag every shipped frame so the catch-up window is wide
	// enough to observe. The backlog records each carry a generation
	// far below the leader's; a read served before the follower draws
	// level would be the silently-stale answer the bound promises to
	// shed.
	restoreLag := faultinject.Set(faultinject.SiteReplicaLag, func() error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	defer restoreLag()
	restore()

	deadline = time.Now().Add(30 * time.Second)
	for {
		_, err := follower.Query("?- n(X).")
		if err == nil {
			if got := follower.Generation(); got < leaderGen {
				t.Fatalf("read served at generation %d while still catching up to %d", got, leaderGen)
			}
			break
		}
		if !errors.Is(err, ErrStale) {
			t.Fatalf("catching-up follower read: got %v, want ErrStale", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up (at generation %d of %d)", follower.Generation(), leaderGen)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCorruptFrameNeverApplied(t *testing.T) {
	leader, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.LoadFacts("n", [][]Term{{Int(1)}}); err != nil {
		t.Fatal(err)
	}

	// Flip a bit in every shipped frame: the follower must detect the
	// CRC mismatch, drop the stream, and retry — the mangled record is
	// never applied. Clear the fault after a while and verify the
	// follower converges to the exact leader state.
	restore := faultinject.SetData(faultinject.SiteReplicaSend, func(b []byte) ([]byte, error) {
		if len(b) > 12 {
			mangled := append([]byte(nil), b...)
			mangled[12] ^= 0x40
			return mangled, nil
		}
		return b, nil
	})
	follower, err := OpenFollower(addr, Config{})
	if err != nil {
		restore()
		t.Fatal(err)
	}
	defer follower.Close()
	time.Sleep(100 * time.Millisecond)
	if got := follower.Generation(); got != 0 {
		restore()
		t.Fatalf("follower applied %d generation(s) from a corrupted stream", got)
	}
	restore()
	waitCaughtUp(t, follower, leader)
	if got, want := answers(t, follower, "?- n(X)."), answers(t, leader, "?- n(X)."); got != want {
		t.Fatalf("follower diverged after corruption healed:\nleader:\n%s\nfollower:\n%s", want, got)
	}
}

// A follower that has never completed a sync with its leader must not
// claim staleness 0 — "never synced" is maximally stale. With any
// staleness bound set, reads shed with ErrStale instead of serving an
// empty database as if it were fresh.
func TestFreshFollowerStalenessUnknown(t *testing.T) {
	// 127.0.0.1:1 is a dead address: the session dials and retries
	// forever, never reaching a sync point.
	follower, err := OpenFollower("127.0.0.1:1", Config{MaxStaleness: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if got := follower.Staleness(); got != replica.StalenessUnknown {
		t.Fatalf("fresh follower Staleness() = %v, want StalenessUnknown", got)
	}
	if _, err := follower.Query("?- p(X)."); !errors.Is(err, ErrStale) {
		t.Fatalf("fresh follower read under a 1h bound: err = %v, want ErrStale", err)
	}
}

// A fenced ex-leader re-opened from its own directory must come back
// read-only in its OLD epoch — it rejoins as history, never as a
// second writable leader. Only an explicit Promote (a fresh epoch)
// makes it writable again.
func TestFencedLeaderReopensReadOnly(t *testing.T) {
	dir := t.TempDir()
	leader, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Exec("p(a)."); err != nil {
		t.Fatal(err)
	}
	gen := leader.Generation()

	// A successor exists at epoch 7; this leader is deposed.
	if err := leader.inner.Fence(7); err != nil {
		t.Fatal(err)
	}
	if err := leader.Exec("p(b)."); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced leader Exec: err = %v, want ErrFenced", err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Fenced() {
		t.Fatal("fencing did not survive the restart")
	}
	if got := re.Epoch(); got != 0 {
		t.Fatalf("reopened ex-leader Epoch() = %d, want its old epoch 0 (not the fencer's)", got)
	}
	if got := re.Generation(); got != gen {
		t.Fatalf("reopened ex-leader generation = %d, want %d", got, gen)
	}
	// Reads still serve its history; writes stay refused, typed.
	if got := answers(t, re, "?- p(X)."); got != "a|\n" {
		t.Fatalf("reopened ex-leader answers = %q", got)
	}
	if err := re.Exec("p(c)."); !errors.Is(err, ErrFenced) {
		t.Fatalf("reopened ex-leader Exec: err = %v, want ErrFenced", err)
	}
	if err := re.LoadFacts("p", [][]Term{{Sym("d")}}); !errors.Is(err, ErrFenced) {
		t.Fatalf("reopened ex-leader LoadFacts: err = %v, want ErrFenced", err)
	}
	// The operator override: Promote mints a fresh epoch and clears
	// the fence durably. The minted epoch must be strictly past the
	// successor's epoch 7 — the highest epoch this node ever heard,
	// remembered across the restart — not past its own old epoch 0,
	// or the re-promoted ex-leader would be writable in an epoch the
	// live successor is (or was) also writing under.
	if err := re.Promote(); err != nil {
		t.Fatal(err)
	}
	if re.Fenced() || re.Epoch() != 8 {
		t.Fatalf("after Promote: fenced=%v epoch=%d, want writable at epoch 8 (past the fencer's 7)", re.Fenced(), re.Epoch())
	}
	if err := re.Exec("p(c)."); err != nil {
		t.Fatalf("promoted ex-leader Exec: %v", err)
	}
}

// The epoch a promotion mints is persisted beside the WAL and
// recovered on reopen: leadership history survives restarts.
func TestEpochPersistsAcrossRestart(t *testing.T) {
	leader, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.Exec("p(a)."); err != nil {
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
	waitCaughtUp(t, follower, leader)
	if err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := follower.Epoch(); got != 1 {
		t.Fatalf("promoted follower Epoch() = %d, want 1", got)
	}
	gen := follower.Generation()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(fdir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Epoch(); got != 1 {
		t.Fatalf("reopened promoted node Epoch() = %d, want 1", got)
	}
	if re.IsFollower() || re.Fenced() {
		t.Fatalf("reopened promoted node: follower=%v fenced=%v, want a writable leader", re.IsFollower(), re.Fenced())
	}
	if got := re.Generation(); got != gen {
		t.Fatalf("reopened promoted node generation = %d, want %d", got, gen)
	}
}

// The wire path of fencing: a follower that has adopted a higher
// epoch (a successor was promoted somewhere) reconnects to the old
// leader; the resume handshake carries the follower's epoch, and the
// deposed leader must fence itself rather than keep acknowledging
// writes no successor will ever hold.
func TestHandshakeFencesDeposedLeader(t *testing.T) {
	leader, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.Exec("p(a)."); err != nil {
		t.Fatal(err)
	}
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	follower, err := OpenFollower(addr, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitCaughtUp(t, follower, leader)

	// The follower learns (as it would from a coordinator-run
	// promotion elsewhere) that epoch 3 exists, then reconnects.
	if err := follower.inner.AdoptEpoch(3); err != nil {
		t.Fatal(err)
	}
	if err := follower.retarget(addr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !leader.Fenced() {
		if time.Now().After(deadline) {
			t.Fatal("leader never fenced itself on a higher-epoch handshake")
		}
		time.Sleep(time.Millisecond)
	}
	if err := leader.Exec("p(b)."); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed leader Exec: err = %v, want ErrFenced", err)
	}
}

// Fencing must cut ESTABLISHED replication streams, not just refuse
// new handshakes: a leader deposed mid-stream may hold backlog past
// the successor's promotion point, and shipping it would push
// connected followers onto a dead branch. After Fence the stream must
// drop and every reconnect must be refused.
func TestFencedLeaderStopsServingEstablishedStreams(t *testing.T) {
	leader, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.Exec("p(a)."); err != nil {
		t.Fatal(err)
	}
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	follower, err := OpenFollower(addr, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitCaughtUp(t, follower, leader)
	follower.replMu.Lock()
	sess := follower.repl
	follower.replMu.Unlock()
	if !sess.Connected() {
		t.Fatal("follower not connected after catching up")
	}

	// Depose the leader directly (as a coordinator that promoted a
	// successor elsewhere would). The follower itself has not heard
	// the higher epoch, so only the leader's own serve loop can end
	// the established stream.
	if err := leader.inner.Fence(3); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sess.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("established stream survived fencing")
		}
		time.Sleep(time.Millisecond)
	}
	// Reconnect attempts are refused at the handshake (the session is
	// marked connected only after a successful echo), so the stream
	// must stay down.
	time.Sleep(50 * time.Millisecond)
	if sess.Connected() {
		t.Fatal("fenced leader accepted a replication reconnect")
	}
}

// A corrupt epoch record refuses to open, typed: leadership state is
// fencing evidence, and recovery never guesses at it.
func TestEpochFileCorrupt(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.inner.Fence(2); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "epoch"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 9); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenDir(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over a corrupt epoch record: err = %v, want ErrCorrupt", err)
	}
}
