package core

import (
	"errors"
	"testing"

	"chainsplit/internal/everr"
	"chainsplit/internal/obsv"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
	"chainsplit/internal/wal"
)

// TestWritableRefusalOrder pins which refusal wins when a node carries
// more than one read-only flag: follower, then fenced (the only one
// counted in FencedWrites), then quarantined — the same for Load and
// LoadTuples, and neither write changes the generation.
func TestWritableRefusalOrder(t *testing.T) {
	cases := []struct {
		name                          string
		follower, fenced, quarantined bool
		want                          error
		counted                       int64 // FencedWrites added
	}{
		{"none", false, false, false, nil, 0},
		{"follower and fenced", true, true, false, everr.ErrNotLeader, 0},
		{"follower and quarantined", true, false, true, everr.ErrNotLeader, 0},
		{"fenced and quarantined", false, true, true, everr.ErrFenced, 1},
		{"all three", true, true, true, everr.ErrNotLeader, 0},
	}
	fact := &program.Program{Facts: []program.Atom{program.NewAtom("p", term.NewInt(1))}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			writes := map[string]func(db *DB) error{
				"Load":       func(db *DB) error { return db.Load(fact) },
				"LoadTuples": func(db *DB) error { return db.LoadTuples("p", [][]term.Term{{term.NewInt(1)}}) },
			}
			for name, write := range writes {
				db := NewDB()
				db.state.Store(&NodeState{EpochState: wal.EpochState{Fenced: c.fenced}, Follower: c.follower, Quarantined: c.quarantined})
				fenced := obsv.FencedWrites.Value()
				err := write(db)
				if c.want == nil {
					if err != nil || db.Generation() != 1 {
						t.Fatalf("%s on a writable node = %v at generation %d", name, err, db.Generation())
					}
					continue
				}
				if !errors.Is(err, c.want) {
					t.Fatalf("%s = %v, want %v", name, err, c.want)
				}
				if db.Generation() != 0 {
					t.Fatalf("refused %s moved the generation to %d", name, db.Generation())
				}
				if got := obsv.FencedWrites.Value() - fenced; got != c.counted {
					t.Fatalf("%s counted %d fenced writes, want %d", name, got, c.counted)
				}
			}
		})
	}
}
