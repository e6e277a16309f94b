package main

import (
	"bufio"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"chainsplit"
)

// TestMain lets tests re-exec this binary as chainsplitctl itself, so
// exit codes — the CLI's scripting contract — are tested for real.
func TestMain(m *testing.M) {
	if os.Getenv("CHAINSPLITCTL_BE_MAIN") == "1" {
		os.Args = append([]string{"chainsplitctl"},
			strings.Split(os.Getenv("CHAINSPLITCTL_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCtl runs chainsplitctl with args and returns combined output and
// the exit code.
func runCtl(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"CHAINSPLITCTL_BE_MAIN=1",
		"CHAINSPLITCTL_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("chainsplitctl %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

func TestFsckExitCodes(t *testing.T) {
	// Nonexistent directory: usage error, exit 1 — exit 3 is reserved
	// strictly for corruption of state that exists.
	out, code := runCtl(t, "-fsck", "-dir", filepath.Join(t.TempDir(), "nope"))
	if code != 1 {
		t.Errorf("fsck on a nonexistent dir: exit %d, want 1\n%s", code, out)
	}

	// Empty directory: it exists but holds no store — still a usage
	// error with a clear diagnostic, not corruption.
	out, code = runCtl(t, "-fsck", "-dir", t.TempDir())
	if code != 1 {
		t.Errorf("fsck on an empty dir: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "no durable store") {
		t.Errorf("fsck on an empty dir: diagnostic missing\n%s", out)
	}

	// Missing -dir: usage error.
	if _, code = runCtl(t, "-fsck"); code != 1 {
		t.Errorf("fsck without -dir: exit %d, want 1", code)
	}

	// A clean store: exit 0.
	dir := t.TempDir()
	db, err := chainsplit.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("p(a)."); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if out, code = runCtl(t, "-fsck", "-dir", dir); code != 0 {
		t.Errorf("fsck on a clean store: exit %d, want 0\n%s", code, out)
	}

	// Corrupted state that exists: exit 3.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to corrupt: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, 4); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if out, code = runCtl(t, "-fsck", "-dir", dir); code != 3 {
		t.Errorf("fsck on a corrupt store: exit %d, want 3\n%s", code, out)
	}
}

func TestFollowFlag(t *testing.T) {
	// A leader with data, served in-process; the CLI follows it and
	// must answer one-shot queries with the leader's facts.
	dir := t.TempDir()
	leader, err := chainsplit.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.Exec("p(a). p(b)."); err != nil {
		t.Fatal(err)
	}
	addr, err := leader.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		out, code := runCtl(t, "-follow", addr, "-q", "?- p(X).")
		if code == 0 && strings.Contains(out, "X = a") && strings.Contains(out, "X = b") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower CLI never served the leader's facts: exit %d\n%s", code, out)
		}
	}

	// Writes through a follower are refused (exit 1, load failure).
	prog := filepath.Join(t.TempDir(), "w.dl")
	os.WriteFile(prog, []byte("q(c).\n"), 0o644)
	if out, code := runCtl(t, "-follow", addr, prog); code != 1 {
		t.Errorf("program load through a follower: exit %d, want 1\n%s", code, out)
	}

	// -max-staleness against a dead leader: the read is shed, exit 2.
	leader2, err := chainsplit.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := leader2.Exec("p(z)."); err != nil {
		t.Fatal(err)
	}
	addr2, err := leader2.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := leader2.Close(); err != nil {
		t.Fatal(err)
	}
	out, code := runCtl(t, "-follow", addr2, "-max-staleness", "1ms", "-q", "?- p(X).")
	if code != 2 {
		t.Errorf("stale read: exit %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, "lags the leader") {
		t.Errorf("stale read: diagnostic missing\n%s", out)
	}

	// -max-staleness without -follow is a usage error.
	if _, code := runCtl(t, "-max-staleness", "1s", "-q", "?- p(X)."); code != 1 {
		t.Errorf("-max-staleness without -follow: exit %d, want 1", code)
	}
}

// startCtl launches chainsplitctl with args, waits (bounded) for the
// marker line on stderr, and returns the running command plus its
// stderr pipe. The caller owns shutdown.
func startCtl(t *testing.T, marker string, args ...string) (*exec.Cmd, io.ReadCloser) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"CHAINSPLITCTL_BE_MAIN=1",
		"CHAINSPLITCTL_ARGS="+strings.Join(args, "\x1f"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	readyCh := make(chan []string, 1)
	go func() {
		var lines []string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines = append(lines, sc.Text())
			if strings.Contains(lines[len(lines)-1], marker) {
				readyCh <- lines
				return
			}
		}
		readyCh <- lines
	}()
	select {
	case lines := <-readyCh:
		if len(lines) == 0 || !strings.Contains(lines[len(lines)-1], marker) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("chainsplitctl %v never printed %q:\n%s", args, marker, strings.Join(lines, "\n"))
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("chainsplitctl %v: no %q within 15s", args, marker)
	}
	return cmd, stderr
}

// stopCtl sends sig and requires a clean exit (code 0) within the
// deadline — the graceful-shutdown contract.
func stopCtl(t *testing.T, cmd *exec.Cmd, stderr io.ReadCloser, sig os.Signal) {
	t.Helper()
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		io.Copy(io.Discard, stderr)
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after %v: %v (want clean exit 0)", sig, err)
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("server did not exit within 15s of %v", sig)
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	// A durable leader serving replication with no query to run: it
	// must serve until SIGTERM, then flush, close and exit 0 — and the
	// store it leaves behind must pass a strict fsck.
	dir := t.TempDir()
	db, err := chainsplit.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("p(a). p(b)."); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cmd, stderr := startCtl(t, "serving until SIGINT/SIGTERM", "-dir", dir, "-serve", "127.0.0.1:0")
	stopCtl(t, cmd, stderr, syscall.SIGTERM)

	if out, code := runCtl(t, "-fsck", "-dir", dir); code != 0 {
		t.Errorf("store dirty after graceful shutdown: exit %d\n%s", code, out)
	}
}

func TestFollowGracefulShutdownOnInterrupt(t *testing.T) {
	// A durable follower with no query tails its leader until SIGINT,
	// then closes cleanly (exit 0) leaving a clean local store.
	leader, err := chainsplit.OpenDir(t.TempDir())
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
	cmd, stderr := startCtl(t, "serving until SIGINT/SIGTERM", "-dir", fdir, "-follow", addr)
	stopCtl(t, cmd, stderr, os.Interrupt)

	if out, code := runCtl(t, "-fsck", "-dir", fdir); code != 0 {
		t.Errorf("follower store dirty after graceful shutdown: exit %d\n%s", code, out)
	}
}

func TestClusterFlag(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(t.TempDir(), "p.dl")
	if err := os.WriteFile(prog, []byte("p(a). p(b).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCtl(t, "-dir", dir, "-cluster", "3", "-q", "?- p(X).", prog)
	if code != 0 || !strings.Contains(out, "X = a") || !strings.Contains(out, "X = b") {
		t.Fatalf("cluster one-shot: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "cluster of 3 nodes") {
		t.Errorf("cluster readiness line missing\n%s", out)
	}
	// Reopening the same directory recovers the group (a fresh epoch
	// each open) and still serves the loaded facts.
	out, code = runCtl(t, "-dir", dir, "-cluster", "3", "-q", "?- p(X).")
	if code != 0 || !strings.Contains(out, "X = a") {
		t.Fatalf("cluster reopen: exit %d\n%s", code, out)
	}

	// Usage errors.
	if out, code := runCtl(t, "-cluster", "3", "-q", "?- p(X)."); code != 1 || !strings.Contains(out, "-cluster needs -dir") {
		t.Errorf("-cluster without -dir: exit %d\n%s", code, out)
	}
	if _, code := runCtl(t, "-dir", dir, "-cluster", "3", "-serve", ":0"); code != 1 {
		t.Errorf("-cluster with -serve: exit %d, want 1", code)
	}
	if _, code := runCtl(t, "-dir", dir, "-cluster", "3", "-explain", "-q", "?- p(X)."); code != 1 {
		t.Errorf("-cluster with -explain: exit %d, want 1", code)
	}
}

func TestSplitQueries(t *testing.T) {
	src := `p(a).
?- p(X).
q(b) :- p(b).
  ?- q(Y), Y = b.
% comment`
	prog, queries := splitQueries(src)
	if len(queries) != 2 {
		t.Fatalf("queries = %v", queries)
	}
	if queries[0] != "?- p(X)." || queries[1] != "?- q(Y), Y = b." {
		t.Errorf("queries = %v", queries)
	}
	if strings.Contains(prog, "?-") {
		t.Errorf("program still contains queries:\n%s", prog)
	}
	if !strings.Contains(prog, "p(a).") || !strings.Contains(prog, "q(b)") {
		t.Errorf("program lost clauses:\n%s", prog)
	}
}

func TestSplitQueriesNone(t *testing.T) {
	prog, queries := splitQueries("p(a).\nq(b).")
	if len(queries) != 0 {
		t.Errorf("queries = %v", queries)
	}
	if !strings.Contains(prog, "p(a).") {
		t.Errorf("program = %q", prog)
	}
}

func TestLoadTSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.tsv")
	content := "a\tb\n% comment\n\nb\tc\n1\t[2, 3]\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	db := chainsplit.Open()
	if err := loadTSV(db, "edge="+path); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("?- edge(X, Y).")
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("rows = %v err = %v", res, err)
	}
	// Bad specs.
	if err := loadTSV(db, "nopath"); err == nil {
		t.Error("spec without '=' accepted")
	}
	if err := loadTSV(db, "edge="+filepath.Join(dir, "missing.tsv")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.tsv")
	os.WriteFile(bad, []byte("a\t((\n"), 0o644)
	if err := loadTSV(db, "e2="+bad); err == nil {
		t.Error("unparseable term accepted")
	}
}

func TestStrategyTableComplete(t *testing.T) {
	for _, name := range []string{"auto", "magic", "magic-follow", "magic-split", "buffered", "topdown", "seminaive"} {
		if _, ok := strategies[name]; !ok {
			t.Errorf("strategy %q missing from CLI table", name)
		}
	}
}

func TestScrubExitCodes(t *testing.T) {
	// The one-shot online pass mirrors -fsck's exit discipline: 1 for
	// usage (no store), 0 clean, 3 corrupt.
	if out, code := runCtl(t, "-scrub", "-dir", t.TempDir()); code != 1 {
		t.Errorf("scrub on an empty dir: exit %d, want 1\n%s", code, out)
	}
	if _, code := runCtl(t, "-scrub"); code != 1 {
		t.Errorf("scrub without -dir: exit %d, want 1", code)
	}

	dir := t.TempDir()
	db, err := chainsplit.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Two records: the online pass excuses damage confined to the very
	// last frame as a possibly in-flight append, so the corruption must
	// land in a settled (non-final) frame to be judged.
	if err := db.Exec("p(a)."); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("p(b)."); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if out, code := runCtl(t, "-scrub", "-dir", dir); code != 0 {
		t.Errorf("scrub on a clean store: exit %d, want 0\n%s", code, out)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to corrupt: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Offset 12 is inside the first record's payload; the second record
	// after it proves the damage is not an append in flight.
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, 12); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if out, code := runCtl(t, "-scrub", "-dir", dir); code != 3 {
		t.Errorf("scrub on a corrupt store: exit %d, want 3\n%s", code, out)
	}
}

// TestQueryExitCodes pins the one-shot query statuses: answers or none
// exit 0, a limit exits 2, and a query that fails otherwise (malformed,
// or refused by the chosen strategy) exits 1, whether it came from -q
// or is embedded in the program. -i keeps going past a failure.
func TestQueryExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	prog := write("p.dl", "e(a, b). e(b, a).\np(X, Y) :- e(X, Y).\n")
	unstratified := write("q.dl", "e(a, b). e(b, a).\nq(X) :- e(X, Y), \\+ q(Y).\n")
	travel := write("travel.dl", `
travel(L, D, DT, A, AT, F) :- flight(Fno, D, DT, A, AT, F), cons(Fno, [], L).
travel(L, D, DT, A, AT, F) :-
    flight(Fno, D, DT, A1, AT1, F1), travel(L1, A1, DT1, A, AT, F2),
    DT1 > AT1, plus(F1, F2, F), cons(Fno, L1, L).
flight(1, a, 100, b, 50, 50).
flight(2, b, 100, a, 50, 60).
`)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"answers", []string{"-q", "?- p(a, Y).", prog}, 0},
		{"no answers", []string{"-q", "?- p(c, Y).", prog}, 0},
		{"syntax error", []string{"-q", "?- p(X", prog}, 1},
		{"refused", []string{"-strategy", "topdown", "-q", "?- q(X).", unstratified}, 1},
		{"limit", []string{"-max-tuples", "200", "-q", "?- travel(L, a, DT, A, AT, F).", travel}, 2},
		{"embedded refused", []string{"-strategy", "topdown", write("emb.dl", "e(a, b).\nq(X) :- e(X, Y), \\+ q(Y).\n?- q(X).\n")}, 1},
		{"embedded answers", []string{write("ok.dl", "e(a, b).\n?- e(X, Y).\n")}, 0},
	}
	for _, c := range cases {
		if out, code := runCtl(t, c.args...); code != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.want, out)
		}
	}
	// -i reports a failed query and answers the next one.
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHAINSPLITCTL_BE_MAIN=1", "CHAINSPLITCTL_ARGS="+strings.Join([]string{"-i", prog}, "\x1f"))
	cmd.Stdin = strings.NewReader("?- p(X\n?- p(a, Y).\n\n")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "syntax error") || !strings.Contains(string(out), "Y = b") {
		t.Errorf("-i past a failed query: %v\n%s", err, out)
	}
}
