package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"chainsplit"
	"chainsplit/internal/obsv"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

// sizes fixes every input dimension of the workloads. fullSizes is the
// benchmark; quickSizes only has to touch the same code in the smoke
// test's few seconds.
type sizes struct {
	famGens      int    // family-recursion / short-query DB A: generations
	scsgGens     int    // family-recursion DB B (dense same_country): generations
	shortGen     int    // short-query asks about a person of this generation
	scsgPerCycle int    // scsg queries per sg query, so both weigh on the cycle
	listSmall    [3]int // append, isort, qsort: small n
	listLarge    [3]int // append, isort, qsort: large n
	durableGens  int    // write-durable preload: generations
	replGens     int    // mixed-replicated preload: generations
	batch        int    // tuples per LoadFacts
	rounds       int    // set-ups (each followed by a measured phase) per run
	countOps     int    // operations in the fixed block the wal/replica counts come from
	flightLayers int    // layers of the acyclic flight network the travel probes run on
}

var (
	fullSizes = sizes{
		famGens: 13, scsgGens: 8, shortGen: 3, scsgPerCycle: 8,
		listSmall: [3]int{256, 24, 64}, listLarge: [3]int{1024, 96, 256},
		durableGens: 9, replGens: 7, batch: 16, rounds: 3, countOps: 300, flightLayers: 6,
	}
	quickSizes = sizes{
		famGens: 7, scsgGens: 5, shortGen: 3, scsgPerCycle: 2,
		listSmall: [3]int{32, 8, 16}, listLarge: [3]int{64, 16, 32},
		durableGens: 5, replGens: 4, batch: 16, rounds: 1, countOps: 20, flightLayers: 3,
	}
)

// pollInterval is how long the mixed-replicated client sleeps between
// looks at the follower's generation; replicate latency is quantised by
// it (and by the leader's own 2 ms log poll).
const pollInterval = 50 * time.Microsecond

// outDir receives trace files, results.json and the durable workloads'
// temporary stores; the smoke test points it at a test directory.
var outDir = filepath.Join("bench", "out")

// recorder collects one client's samples during a phase.
type recorder struct {
	ops       [][]time.Duration // per operation class, every sample
	cycle     time.Duration     // summed operation latency of the open cycle
	attempted int
	failed    int
}

func (r *recorder) op(class int, d time.Duration, ok bool) {
	r.ops[class] = append(r.ops[class], d)
	r.cycle += d
	r.attempted++
	if !ok {
		r.failed++
	}
}

// env is one set-up instance of a workload.
type env interface {
	// cycle runs one closed-loop cycle as client c: each operation of
	// the workload, timed from call to answer (or durable ack) and then
	// checked against its oracle outside the timer. An error, a typed
	// refusal or a wrong answer is a failed operation.
	cycle(c int, rng *rand.Rand, rec *recorder)
	// finish runs the checks that end round number `round` of a run
	// (cross-strategy, leader vs follower, close/reopen) and reports
	// operations attempted/failed.
	finish(round int) (attempted, failed int)
	// layers is the traced run: it replays operations stage by stage
	// through the layers' public functions under tr, times the probes
	// of the layers this workload loads, and fills m.
	layers(ph *phase, budget time.Duration, rng *rand.Rand, tr *tracer, m map[string]float64) (attempted, failed int)
	close() error
}

// setupMeter separates what set-up costs the system (generate, open,
// load, catch up and one warming cycle: setup_s) from what the harness
// adds (its oracle), and measures the heap the warmed database holds
// over the harness's own.
type setupMeter struct {
	d          time.Duration
	base, live uint64
}

func (m *setupMeter) timed(f func() error) error {
	t := time.Now()
	err := f()
	m.d += time.Since(t)
	return err
}

func heapNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (m *setupMeter) markBase() { m.base = heapNow() }
func (m *setupMeter) markLive() {
	if h := heapNow(); h > m.base {
		m.live = h - m.base
	}
}

type workloadDef struct {
	name, why string
	clients   int
	ops       []string // operation classes, in cycle order
	setup     func(seed int64, sz sizes) (env, *setupMeter, error)
}

var workloads = []workloadDef{
	{
		name:    "family-recursion",
		why:     "function-free recursion (sg, scsg): only here do seminaive and relation do most of the work; counting, topdown, wal, replica do none",
		clients: 1, ops: []string{"sg", "scsg"},
		setup: func(seed int64, sz sizes) (env, *setupMeter, error) { return setupFamily(seed, sz, false) },
	},
	{
		name:    "short-query",
		why:     "tiny sg answer on the same data, 2 clients: parse, plan, magic rewrite and admission are the time, evaluation is not",
		clients: 2, ops: []string{"short"},
		setup: func(seed int64, sz sizes) (env, *setupMeter, error) { return setupFamily(seed, sz, true) },
	},
	{
		name:    "functional-recursion",
		why:     "list programs (append, isort, qsort) at two sizes: counting, topdown, term and lang do the work; magic, seminaive, relation do none",
		clients: 1, ops: []string{"append_small", "append", "isort_small", "isort", "qsort_small", "qsort"},
		setup: setupLists,
	},
	{
		name:    "write-durable",
		why:     "fsynced LoadFacts batches into a 90k-fact store: generation build, wal append, snapshot and recovery with no query evaluation",
		clients: 1, ops: []string{"write"},
		setup: setupDurable,
	},
	{
		name:    "mixed-replicated",
		why:     "write, wait for the follower, read there: every read plans against a generation that just changed; the only workload through replica",
		clients: 1, ops: []string{"write", "replicate", "sg"},
		setup: setupReplicated,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// loadFacts bulk-loads a generated program's facts, one LoadFacts per
// predicate in first-appearance order.
func loadFacts(db *chainsplit.DB, p *program.Program) error {
	by := make(map[string][][]chainsplit.Term)
	var order []string
	for _, f := range p.Facts {
		if _, seen := by[f.Pred]; !seen {
			order = append(order, f.Pred)
		}
		by[f.Pred] = append(by[f.Pred], f.Args)
	}
	for _, pred := range order {
		if err := db.LoadFacts(pred, by[pred]); err != nil {
			return err
		}
	}
	return nil
}

// ---- family-recursion and short-query --------------------------------

type familyEnv struct {
	sz     sizes
	short  bool
	progA  *program.Program
	progB  *program.Program
	dbA    *chainsplit.DB
	dbB    *chainsplit.DB
	walkA  []*walker // one per client
	walkB  []*walker
	probeA string // the fixed person the count probes ask about
}

func setupFamily(seed int64, sz sizes, short bool) (env, *setupMeter, error) {
	e := &familyEnv{sz: sz, short: short}
	m := &setupMeter{}
	m.timed(func() error {
		e.progA = workload.Family(workload.FamilyConfig{Generations: sz.famGens, Fanout: 2, Roots: 1, Countries: 1 << 20, Seed: seed})
		if !short {
			e.progB = workload.Family(workload.FamilyConfig{Generations: sz.scsgGens, Fanout: 2, Roots: 1, Countries: 2, Seed: seed})
		}
		return nil
	})
	treeA := newTree(e.progA)
	e.walkA = []*walker{newWalker(treeA), newWalker(treeA)}
	if !short {
		e.walkB = []*walker{newWalker(newTree(e.progB))}
	}
	m.markBase()
	err := m.timed(func() error {
		e.dbA = chainsplit.Open()
		if err := loadFacts(e.dbA, e.progA); err != nil {
			return err
		}
		if err := e.dbA.Exec(workload.SGRules()); err != nil {
			return err
		}
		if short {
			return nil
		}
		e.dbB = chainsplit.Open()
		if err := loadFacts(e.dbB, e.progB); err != nil {
			return err
		}
		return e.dbB.Exec(workload.SCSGRules())
	})
	gen := sz.famGens
	if short {
		gen = sz.shortGen
	}
	e.probeA = workload.PersonName(gen, int(seed)&(1<<gen-1))
	return e, m, err
}

// ask times one sg/scsg query about a random person of generation gen
// and checks the answers against the tree walk.
func (e *familyEnv) ask(rng *rand.Rand, rec *recorder, class int, db *chainsplit.DB, w *walker, pred string, gen int) {
	name := workload.PersonName(gen, rng.Intn(1<<gen))
	q := "?- " + pred + "(" + name + ", Y)."
	t := time.Now()
	res, err := db.Query(q)
	d := time.Since(t)
	ok := err == nil
	if ok {
		ok = w.check(res.Tuples, w.sameGen(w.t.id[name], pred == "scsg"))
	}
	rec.op(class, d, ok)
}

func (e *familyEnv) cycle(c int, rng *rand.Rand, rec *recorder) {
	if e.short {
		e.ask(rng, rec, 0, e.dbA, e.walkA[c], "sg", e.sz.shortGen)
		return
	}
	e.ask(rng, rec, 0, e.dbA, e.walkA[c], "sg", e.sz.famGens)
	for i := 0; i < e.sz.scsgPerCycle; i++ {
		e.ask(rng, rec, 1, e.dbB, e.walkB[c], "scsg", e.sz.scsgGens)
	}
}

// finish checks the cost-based scsg plan against plain semi-naive
// evaluation, once per run (the full bottom-up evaluation takes
// seconds): two strategies, one answer set.
func (e *familyEnv) finish(round int) (int, int) {
	if e.short || round > 0 {
		return 0, 0
	}
	q := "?- scsg(" + workload.PersonName(e.sz.scsgGens, 0) + ", Y)."
	auto, err1 := e.dbB.Query(q)
	plain, err2 := e.dbB.Query(q, chainsplit.WithStrategy(chainsplit.StrategySeminaive))
	if err1 != nil || err2 != nil || rendered(auto) != rendered(plain) {
		return 1, 1
	}
	return 1, 0
}

func (e *familyEnv) close() error { return nil }

// ---- functional-recursion --------------------------------------------

type listEnv struct {
	sz sizes
	db *chainsplit.DB
}

func setupLists(seed int64, sz sizes) (env, *setupMeter, error) {
	e := &listEnv{sz: sz}
	m := &setupMeter{}
	m.markBase()
	err := m.timed(func() error {
		e.db = chainsplit.Open()
		return e.db.Exec(workload.SortRules())
	})
	return e, m, err
}

var listPrograms = [3]string{"append", "isort", "qsort"}

// listQuery renders the query text for one list operation and the
// answer Go's own append / sort gives for it. Values stay below 100000
// and lists are fresh every time, so nothing is pre-interned.
func listQuery(prog string, vs []int64) (q string, want []int64) {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatInt(v, 10)
	}
	lit := "[" + strings.Join(parts, ",") + "]"
	want = append([]int64(nil), vs...)
	if prog == "append" {
		return "?- append(" + lit + ", [-1], W).", append(want, -1)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return "?- " + prog + "(" + lit + ", W).", want
}

func randomList(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = rng.Int63n(100000)
	}
	return vs
}

// listAnswerIs reports whether res is the single answer W = want.
func listAnswerIs(res *chainsplit.Result, want []int64) bool {
	if len(res.Rows) != 1 {
		return false
	}
	elems, ok := term.ListSlice(res.Rows[0]["W"])
	if !ok || len(elems) != len(want) {
		return false
	}
	for i, el := range elems {
		if v, isInt := el.(term.Int); !isInt || v.V != want[i] {
			return false
		}
	}
	return true
}

func (e *listEnv) cycle(c int, rng *rand.Rand, rec *recorder) {
	for k, prog := range listPrograms {
		for s, n := range [2]int{e.sz.listSmall[k], e.sz.listLarge[k]} {
			q, want := listQuery(prog, randomList(rng, n))
			t := time.Now()
			res, err := e.db.Query(q)
			d := time.Since(t)
			rec.op(2*k+s, d, err == nil && listAnswerIs(res, want))
		}
	}
}

func (e *listEnv) finish(int) (int, int) { return 0, 0 }
func (e *listEnv) close() error          { return nil }

// ---- write-durable ----------------------------------------------------

type durableEnv struct {
	sz       sizes
	dir      string
	prog     *program.Program
	text     string
	db       *chainsplit.DB
	youngest int // persons in the youngest generation
	written  int // tuples written so far
	// stalls are the latencies of the writes that triggered a snapshot.
	stalls []time.Duration
}

// tempDir makes a fresh store directory under outDir, inside the
// checkout.
func tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, prefix)
}

func setupDurable(seed int64, sz sizes) (env, *setupMeter, error) {
	e := &durableEnv{sz: sz, youngest: 1 << sz.durableGens}
	m := &setupMeter{}
	m.timed(func() error {
		e.prog = workload.Family(workload.FamilyConfig{Generations: sz.durableGens, Fanout: 2, Roots: 1, Countries: 4, Seed: seed})
		e.text = e.prog.String()
		return nil
	})
	m.markBase()
	err := m.timed(func() (err error) {
		if e.dir, err = tempDir("durable-"); err != nil {
			return err
		}
		if e.db, err = chainsplit.OpenDir(e.dir); err != nil {
			return err
		}
		if err = e.db.Exec(e.text); err != nil {
			return err
		}
		return e.db.Exec(workload.SGRules())
	})
	return e, m, err
}

// batchOf builds the next batch of fresh parent tuples: new persons
// under random members of the youngest generation gen.
func batchOf(rng *rand.Rand, prefix string, from, n, gen int) (tuples [][]chainsplit.Term, kids, parents []string) {
	for i := 0; i < n; i++ {
		kid := prefix + strconv.Itoa(from+i)
		par := workload.PersonName(gen, rng.Intn(1<<gen))
		tuples = append(tuples, []chainsplit.Term{chainsplit.Sym(kid), chainsplit.Sym(par)})
		kids, parents = append(kids, kid), append(parents, par)
	}
	return tuples, kids, parents
}

func (e *durableEnv) cycle(c int, rng *rand.Rand, rec *recorder) {
	tuples, _, _ := batchOf(rng, "w", e.written, e.sz.batch, e.sz.durableGens)
	e.written += len(tuples)
	gen, snaps := e.db.Generation(), obsv.WALSnapshots.Value()
	t := time.Now()
	err := e.db.LoadFacts("parent", tuples)
	d := time.Since(t)
	if obsv.WALSnapshots.Value() > snaps {
		e.stalls = append(e.stalls, d)
	}
	rec.op(0, d, err == nil && e.db.Generation() == gen+1)
}

// state is what must survive a close/reopen: the generation and the
// digest of every parent fact, sorted.
func (e *durableEnv) state() (uint64, uint64, error) {
	res, err := e.db.Query("?- parent(X, Y).")
	if err != nil {
		return 0, 0, err
	}
	return e.db.Generation(), digest(res), nil
}

// reopen closes and recovers the store, returning how long recovery
// took and whether the recovered state equals the pre-close one.
func (e *durableEnv) reopen() (time.Duration, bool) {
	gen, dig, err := e.state()
	if err != nil || e.db.Close() != nil {
		return 0, false
	}
	t := time.Now()
	e.db, err = chainsplit.OpenDir(e.dir)
	d := time.Since(t)
	if err != nil {
		return d, false
	}
	gen2, dig2, err := e.state()
	return d, err == nil && gen2 == gen && dig2 == dig
}

func (e *durableEnv) finish(int) (int, int) {
	if _, ok := e.reopen(); !ok {
		return 1, 1
	}
	return 1, 0
}

func (e *durableEnv) close() error {
	err := e.db.Close()
	os.RemoveAll(e.dir)
	return err
}

// ---- mixed-replicated -------------------------------------------------

type replEnv struct {
	sz       sizes
	dir      string
	prog     *program.Program
	text     string
	leader   *chainsplit.DB
	follower *chainsplit.DB
	addr     string // the leader's replication address
	walk     *walker
	written  int
}

// awaitGeneration polls until db has reached gen, sleeping pollInterval
// between looks; false after 10 s.
func awaitGeneration(db *chainsplit.DB, gen uint64) bool {
	deadline := time.Now().Add(10 * time.Second)
	for db.Generation() < gen {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(pollInterval)
	}
	return true
}

func setupReplicated(seed int64, sz sizes) (env, *setupMeter, error) {
	e := &replEnv{sz: sz}
	m := &setupMeter{}
	m.timed(func() error {
		e.prog = workload.Family(workload.FamilyConfig{Generations: sz.replGens, Fanout: 2, Roots: 1, Countries: 4, Seed: seed})
		e.text = e.prog.String()
		return nil
	})
	e.walk = newWalker(newTree(e.prog))
	m.markBase()
	err := m.timed(func() (err error) {
		if e.dir, err = tempDir("replicated-"); err != nil {
			return err
		}
		if e.leader, err = chainsplit.OpenDir(filepath.Join(e.dir, "leader")); err != nil {
			return err
		}
		if err = e.leader.Exec(e.text); err != nil {
			return err
		}
		if err = e.leader.Exec(workload.SGRules()); err != nil {
			return err
		}
		if e.addr, err = e.leader.ServeReplication("127.0.0.1:0"); err != nil {
			return err
		}
		if e.follower, err = chainsplit.OpenFollower(e.addr, chainsplit.Config{Dir: filepath.Join(e.dir, "follower")}); err != nil {
			return err
		}
		if !awaitGeneration(e.follower, e.leader.Generation()) {
			return fmt.Errorf("follower did not catch up with generation %d", e.leader.Generation())
		}
		return nil
	})
	return e, m, err
}

func (e *replEnv) cycle(c int, rng *rand.Rand, rec *recorder) {
	gen := e.sz.replGens
	tuples, kids, parents := batchOf(rng, "n", e.written, e.sz.batch, gen)
	e.written += len(tuples)

	t := time.Now()
	err := e.leader.LoadFacts("parent", tuples)
	rec.op(0, time.Since(t), err == nil)
	for i, kid := range kids {
		e.walk.t.addChild(kid, parents[i])
	}

	want := e.leader.Generation()
	t = time.Now()
	caught := awaitGeneration(e.follower, want)
	rec.op(1, time.Since(t), caught)

	name := workload.PersonName(gen, rng.Intn(1<<gen))
	t = time.Now()
	res, err := e.follower.Query("?- sg(" + name + ", Y).")
	d := time.Since(t)
	ok := err == nil && res.Metrics.Generation >= want
	if ok {
		ok = e.walk.check(res.Tuples, e.walk.sameGen(e.walk.t.id[name], false))
	}
	if ok {
		// Read-after-write: the batch just acknowledged is visible.
		last := len(kids) - 1
		pr, perr := e.follower.Query("?- parent(" + kids[last] + ", P).")
		ok = perr == nil && len(pr.Tuples) == 1 && pr.Tuples[0][1].String() == parents[last]
	}
	rec.op(2, d, ok)
}

// finish compares follower and leader answers byte for byte at equal
// generation, on a few members of the youngest generation.
func (e *replEnv) finish(int) (attempted, failed int) {
	if !awaitGeneration(e.follower, e.leader.Generation()) {
		return 1, 1
	}
	for i := 0; i < 8; i++ {
		q := "?- sg(" + workload.PersonName(e.sz.replGens, i) + ", Y)."
		a, err1 := e.leader.Query(q)
		b, err2 := e.follower.Query(q)
		attempted++
		if err1 != nil || err2 != nil || a.Metrics.Generation != b.Metrics.Generation || rendered(a) != rendered(b) {
			failed++
		}
	}
	return attempted, failed
}

func (e *replEnv) close() error {
	err := e.follower.Close()
	if lerr := e.leader.Close(); err == nil {
		err = lerr
	}
	os.RemoveAll(e.dir)
	return err
}
