package core

// Node state: role, epoch, fencing and quarantine as one immutable
// value, changed only by setState and read whole through State, so
// every gate decides on one snapshot (docs/cluster.md has the table).
//
// A node that detects corruption in its own store (a failed scrub
// pass) or divergence from the leader (a digest mismatch) quarantines
// itself: user-facing writes and reads are refused, while the
// replication apply path stays open, because re-seeding from the
// leader IS the repair. The cluster layer runs the reseed and then
// calls ClearQuarantine.

import (
	"chainsplit/internal/everr"
	"chainsplit/internal/obsv"
	"chainsplit/internal/wal"
)

// NodeState is a database's role and fencing state. The embedded
// EpochState is the persisted part (MaxSeen >= Epoch always). The
// opener chooses the role; quarantine is never persisted, because
// recovery re-verifies the store more strictly than any quarantine.
type NodeState struct {
	wal.EpochState
	Follower    bool // a read-only replica, fed through ApplyReplica
	Quarantined bool // holds state found corrupt or diverged
}

// WriteRefusal is the error a mutation gets in this state, nil if it
// is accepted: a follower is not the leader, before anything
// LeadRefusal would say.
func (s NodeState) WriteRefusal() error {
	if s.Follower {
		return everr.ErrNotLeader
	}
	return s.LeadRefusal()
}

// LeadRefusal is why this node may not serve as leader whatever its
// role, nil if nothing stops it: a fenced ex-leader has been deposed,
// then a quarantined node holds suspect state. The cluster counts a
// node it refuses as down.
func (s NodeState) LeadRefusal() error {
	switch {
	case s.Fenced:
		return everr.ErrFenced
	case s.Quarantined:
		return everr.ErrQuarantined
	}
	return nil
}

// ReadRefusal is the error a user-facing read gets in this state, nil
// if it is served: only a quarantined node refuses reads.
func (s NodeState) ReadRefusal() error {
	if s.Quarantined {
		return everr.ErrQuarantined
	}
	return nil
}

// State returns the current node state (one atomic load).
func (db *DB) State() NodeState { return *db.state.Load() }

// Epoch returns the leader epoch the database currently serves under.
func (db *DB) Epoch() uint64 { return db.state.Load().Epoch }

// setState is the only code that changes the node state: it applies f,
// raising MaxSeen to at least Epoch. A changed persisted part is
// written to a durable database's epoch file first — durable before
// visible — and a failed write changes nothing. If a concurrent
// Quarantine swaps in first, f is applied again to its result, so
// neither is lost. Callers changing the persisted part hold writeMu
// (which guards db.store), so a re-applied f changes only the rest.
// setState returns the state f was applied to.
func (db *DB) setState(f func(NodeState) NodeState) (NodeState, error) {
	apply := func(cur *NodeState) *NodeState {
		next := f(*cur)
		next.MaxSeen = max(next.MaxSeen, next.Epoch)
		return &next
	}
	cur := db.state.Load()
	next := apply(cur)
	if next.EpochState != cur.EpochState && db.store != nil {
		if err := wal.WriteEpochState(db.store.Dir(), next.EpochState); err != nil {
			return *cur, err
		}
	}
	for *next != *cur && !db.state.CompareAndSwap(cur, next) {
		cur = db.state.Load()
		next = apply(cur)
	}
	return *cur, nil
}

// Quarantine marks the database quarantined. It reports whether this
// call made the transition (false if already quarantined), so exactly
// one detector owns the repair that follows.
func (db *DB) Quarantine() bool {
	prev, _ := db.setState(func(s NodeState) NodeState { s.Quarantined = true; return s })
	if prev.Quarantined {
		return false
	}
	obsv.Quarantines.Inc()
	return true
}

// ClearQuarantine lifts the quarantine after a completed repair.
func (db *DB) ClearQuarantine() {
	db.setState(func(s NodeState) NodeState { s.Quarantined = false; return s })
}
