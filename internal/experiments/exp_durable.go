package experiments

import (
	"fmt"
	"os"
	"time"

	"chainsplit/internal/core"
	"chainsplit/internal/lang"
	"chainsplit/internal/obsv"
	"chainsplit/internal/program"
	"chainsplit/internal/wal"
	"chainsplit/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "C5",
		Title:    "durability: WAL append cost, snapshot compaction, recovery fidelity",
		PaperRef: "durability-layer validation (no paper counterpart)",
		Claim: "identical answers and generation after reopen on both cadences;\n" +
			"snapshots trade write amplification for shorter replay.",
		Run: runC5,
	})
}

// runC5 measures what durable state costs and proves what it buys: a
// database is grown mutation by mutation through a write-ahead log,
// closed, and re-opened — recovery must land on the same generation
// and the recovered database must give the same answers. Two cadences
// are compared: log-only (snapshots disabled, recovery replays every
// record) and compacted (periodic snapshots bound replay length).
func runC5(cfg Config) (*Report, error) {
	const gens, batch = 6, 16
	fam := workload.Family(workload.FamilyConfig{Generations: gens, Fanout: 2, Roots: 1, Countries: 1, Seed: 1})
	goal, err := lang.ParseQuery(fmt.Sprintf("?- sg(%s, Y).", workload.PersonName(gens, 0)))
	if err != nil {
		return nil, err
	}

	r := &Report{}
	t := r.table("", "cadence", "mutations", "walbytes", "snapshots", "load", "reopen", "answers", "recovered=original")
	for _, cad := range []struct {
		name  string
		every int
	}{
		{"log-only", -1},
		{"snapshot/32", 32},
	} {
		dir, err := os.MkdirTemp("", "chainsplit-c5-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)

		bytesBefore := obsv.WALBytes.Value()
		snapsBefore := obsv.WALSnapshots.Value()
		loadStart := time.Now()
		db, err := core.OpenDir(dir, wal.Options{SnapshotEvery: cad.every})
		if err != nil {
			return nil, err
		}
		if err := loadParsed(db, workload.SGRules()); err != nil {
			return nil, err
		}
		mutations := 1
		for lo := 0; lo < len(fam.Facts); lo += batch {
			hi := min(lo+batch, len(fam.Facts))
			if err := db.Load(&program.Program{Facts: fam.Facts[lo:hi]}); err != nil {
				return nil, err
			}
			mutations++
		}
		loadDur := time.Since(loadStart)

		res, err := queryDB(cfg, db, goal.Goals, core.Options{})
		if err != nil {
			return nil, err
		}
		wantGen := db.Generation()
		if err := db.Close(); err != nil {
			return nil, err
		}

		reopenStart := time.Now()
		db2, err := core.OpenDir(dir, wal.Options{SnapshotEvery: cad.every})
		if err != nil {
			return nil, err
		}
		reopenDur := time.Since(reopenStart)
		res2, err := queryDB(cfg, db2, goal.Goals, core.Options{})
		if err != nil {
			return nil, err
		}
		same := db2.Generation() == wantGen && sameAnswers(res, res2)
		if err := db2.Close(); err != nil {
			return nil, err
		}
		t.add(cad.name, mutations,
			obsv.WALBytes.Value()-bytesBefore,
			obsv.WALSnapshots.Value()-snapsBefore,
			ms(loadDur), ms(reopenDur), len(res2.Answers), same)
		r.check(same, "%s: the recovered database diverged from the original", cad.name)
	}
	return r, nil
}

// loadParsed parses rule text and loads it as one mutation.
func loadParsed(db *core.DB, rules string) error {
	res, err := lang.Parse(rules)
	if err != nil {
		return err
	}
	return db.Load(res.Program)
}
