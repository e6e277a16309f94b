package core

import (
	"errors"
	"sync"
	"testing"

	"chainsplit/internal/everr"
	"chainsplit/internal/term"
	"chainsplit/internal/wal"
)

// TestNodeStateTransitions walks one durable node through every role
// change — leader, fenced ex-leader, quarantine, reopened follower,
// epoch adoption, reset and re-promotion — and after each step pins
// the epoch file, the serving epoch, the write refusal and the read
// refusal.
func TestNodeStateTransitions(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name  string
		do    func()
		file  wal.EpochState
		epoch uint64
		write error // LoadTuples refusal
		read  error // read gate refusal
	}{
		{"open", func() {}, wal.EpochState{}, 0, nil, nil},
		{"promote a leader is a no-op", func() { must(db.Promote()) }, wal.EpochState{}, 0, nil, nil},
		{"fence 5", func() { must(db.Fence(5)) },
			wal.EpochState{Epoch: 0, MaxSeen: 5, Fenced: true}, 0, everr.ErrFenced, nil},
		{"fence 3 is ignored", func() { must(db.Fence(3)) },
			wal.EpochState{Epoch: 0, MaxSeen: 5, Fenced: true}, 0, everr.ErrFenced, nil},
		{"quarantine a fenced leader", func() { db.Quarantine() },
			wal.EpochState{Epoch: 0, MaxSeen: 5, Fenced: true}, 0, everr.ErrFenced, everr.ErrQuarantined},
		{"clear quarantine", func() { db.ClearQuarantine() },
			wal.EpochState{Epoch: 0, MaxSeen: 5, Fenced: true}, 0, everr.ErrFenced, nil},
		{"reopen as follower", func() {
			must(db.Close())
			db, err = OpenFollowerDir(dir, wal.Options{})
			must(err)
		}, wal.EpochState{Epoch: 0, MaxSeen: 5, Fenced: true}, 0, everr.ErrNotLeader, nil},
		{"adopt 6", func() { must(db.AdoptEpoch(6)) },
			wal.EpochState{Epoch: 6, MaxSeen: 6, Fenced: true}, 6, everr.ErrNotLeader, nil},
		{"fence 7 on a follower adopts it", func() { must(db.Fence(7)) },
			wal.EpochState{Epoch: 7, MaxSeen: 7, Fenced: true}, 7, everr.ErrNotLeader, nil},
		{"quarantine a follower", func() { db.Quarantine() },
			wal.EpochState{Epoch: 7, MaxSeen: 7, Fenced: true}, 7, everr.ErrNotLeader, everr.ErrQuarantined},
		{"reset", func() { must(db.ResetReplica()) },
			wal.EpochState{Epoch: 7, MaxSeen: 7}, 7, everr.ErrNotLeader, everr.ErrQuarantined},
		{"clear quarantine after reset", func() { db.ClearQuarantine() },
			wal.EpochState{Epoch: 7, MaxSeen: 7}, 7, everr.ErrNotLeader, nil},
		{"promote", func() { must(db.Promote()) },
			wal.EpochState{Epoch: 8, MaxSeen: 8}, 8, nil, nil},
		{"fence 9", func() { must(db.Fence(9)) },
			wal.EpochState{Epoch: 8, MaxSeen: 9, Fenced: true}, 8, everr.ErrFenced, nil},
		{"promote past the fencer", func() { must(db.Promote()) },
			wal.EpochState{Epoch: 10, MaxSeen: 10}, 10, nil, nil},
		{"quarantine a leader", func() { db.Quarantine() },
			wal.EpochState{Epoch: 10, MaxSeen: 10}, 10, everr.ErrQuarantined, everr.ErrQuarantined},
	}
	for i, s := range steps {
		s.do()
		file, err := wal.ReadEpochState(dir)
		if err != nil {
			t.Fatalf("step %d (%s): epoch file: %v", i+1, s.name, err)
		}
		if file != s.file {
			t.Fatalf("step %d (%s): epoch file %+v, want %+v", i+1, s.name, file, s.file)
		}
		if got := db.Epoch(); got != s.epoch {
			t.Fatalf("step %d (%s): Epoch() = %d, want %d", i+1, s.name, got, s.epoch)
		}
		werr := db.LoadTuples("p", [][]term.Term{{term.NewInt(int64(i))}})
		if (s.write == nil) != (werr == nil) || (s.write != nil && !errors.Is(werr, s.write)) {
			t.Fatalf("step %d (%s): LoadTuples = %v, want %v", i+1, s.name, werr, s.write)
		}
		if rerr := db.State().ReadRefusal(); rerr != s.read {
			t.Fatalf("step %d (%s): read gate = %v, want %v", i+1, s.name, rerr, s.read)
		}
	}
}

// TestQuarantineSurvivesConcurrentEpochAdoption races epoch adoption
// against quarantine toggles: neither kind of transition may lose the
// other's. The race is rerun a few times to give a lost update more
// than one chance to show.
func TestQuarantineSurvivesConcurrentEpochAdoption(t *testing.T) {
	for round := 0; round < 10; round++ {
		db := NewFollower()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for e := uint64(1); e <= 200; e++ {
				if err := db.AdoptEpoch(e); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.Quarantine()
				db.ClearQuarantine()
			}
			db.Quarantine()
		}()
		wg.Wait()
		if got := db.Epoch(); got != 200 {
			t.Fatalf("round %d: Epoch() = %d after adopting 1..200, want 200", round, got)
		}
		if !db.State().Quarantined {
			t.Fatalf("round %d: a quarantine raced by epoch adoption was lost", round)
		}
	}
}
