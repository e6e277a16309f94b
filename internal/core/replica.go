package core

// Replica follower support: a follower is an ordinary DB whose
// generations advance only by applying records shipped from a leader's
// write-ahead log, never by local mutation. The apply path mirrors the
// leader's discipline exactly — shipped record appended and fsynced to
// the follower's own log *before* the generation is published — so a
// follower that crashes recovers through the ordinary OpenDir path to
// exactly its last durable generation, and the replication stream
// resumes from there. Because replication ships only base mutations
// (the chain-split framing: derived chains are re-derived bottom-up,
// never transported), applying the same record sequence reproduces the
// leader's generations bit-identically.

import (
	"errors"
	"fmt"

	"chainsplit/internal/obsv"
	"chainsplit/internal/wal"
)

// NewFollower returns an empty in-memory follower: read-only until
// Promote, fed exclusively through ApplyReplica. Without a local
// store its state is not durable — a restart re-bootstraps from the
// leader.
func NewFollower() *DB {
	db := NewDB()
	db.setState(becomeFollower)
	return db
}

// OpenFollowerDir opens a durable follower rooted at dir, recovering
// its last durable generation exactly as OpenDir does, then marking
// the database read-only. The caller resumes the replication stream
// from Generation().
func OpenFollowerDir(dir string, opts wal.Options) (*DB, error) {
	db, err := OpenDir(dir, opts)
	if err != nil {
		return nil, err
	}
	db.setState(becomeFollower)
	return db, nil
}

// becomeFollower is the transition to a read-only replica.
func becomeFollower(s NodeState) NodeState {
	s.Follower = true
	return s
}

// ApplyReplica applies one shipped leader record: validate and build
// the next generation, append the record to the follower's own log
// (durable before visible, the same publish-after-log invariant the
// leader upholds), then publish. The record's sequence must be exactly
// Generation()+1 — the transport guarantees contiguity and this
// re-verifies it. Failures leave the database unchanged.
func (db *DB) ApplyReplica(r wal.Record) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if !db.State().Follower {
		return errors.New("core: ApplyReplica on a database that is not a follower")
	}
	next, err := db.buildRecordGen(r)
	if err != nil {
		return err
	}
	// The shipped record is re-logged verbatim, not re-rendered: the
	// follower's log must replay to the same state the leader's does.
	if err := db.commit(next, r); err != nil {
		return err
	}
	obsv.ReplicaRecordsApplied.Inc()
	return nil
}

// BootstrapReplica re-seeds the follower from a full leader snapshot —
// the recovery path for a follower whose resume position has left the
// leader's retained history. The local store (if any) is wiped and
// rebuilt to hold exactly the snapshot; the published state jumps to
// the snapshot's generation.
func (db *DB) BootstrapReplica(snap *wal.Snapshot) error {
	next, err := genFromSnapshot(snap)
	if err != nil {
		return err
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if !db.State().Follower {
		return errors.New("core: BootstrapReplica on a database that is not a follower")
	}
	if db.store != nil {
		dir, opts := db.store.Dir(), db.store.Options()
		if err := db.store.Close(); err != nil {
			return err
		}
		s, err := wal.Bootstrap(dir, snap, opts)
		if err != nil {
			return err
		}
		db.store = s
	}
	db.publish(next)
	return nil
}

// ResetReplica wipes the node's state so it can re-seed from the
// current leader through the ordinary resume handshake — the repair
// half of quarantine. The durable store (if any) is wiped and
// re-created empty at generation 0, the published state drops to the
// empty generation, and the database becomes a follower (a corrupt
// ex-leader has, by definition, no state worth leading with). Epoch
// knowledge is preserved and re-persisted — a repaired node must still
// refuse streams from deposed leaders — with the fenced flag cleared:
// the node is now an ordinary follower, not a deposed leader. A
// follower restarted at generation 0 resumes from the leader exactly
// as a brand-new one does: tailed records if the leader retains full
// history, a shipped snapshot otherwise.
func (db *DB) ResetReplica() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	var fresh *wal.Store
	if db.store != nil {
		dir, opts := db.store.Dir(), db.store.Options()
		if err := db.store.Close(); err != nil {
			return err
		}
		s, err := wal.Bootstrap(dir, &wal.Snapshot{Seq: 0}, opts)
		if err != nil {
			return err
		}
		fresh = s
	}
	if _, err := db.setState(func(s NodeState) NodeState {
		s.Follower, s.Fenced = true, false
		return s
	}); err != nil {
		if fresh != nil {
			fresh.Close()
		}
		return err
	}
	if fresh != nil {
		db.store = fresh
	}
	db.publish(newGeneration(0))
	return nil
}

// Promote turns the follower (or a fenced ex-leader) into a writable
// leader at exactly its last durable generation: fsync the local log
// tail, verify the published generation and the durable position
// agree, then persist a bumped epoch and clear the read-only flags.
// There is no third outcome — a follower whose log and published state
// disagree refuses to promote (ErrCorrupt) rather than inventing or
// dropping a generation, and a promotion whose epoch cannot be made
// durable fails with the database still read-only. Promoting a
// writable leader is a no-op, so retries are safe.
//
// The epoch bump is the fencing half of failover: the new leader's
// frames carry the higher epoch, every follower that hears it adopts
// it, and any surviving ex-leader that meets the higher epoch fences
// itself. The minted epoch is one past the highest epoch this node has
// EVER heard of (MaxSeen), not just its own serving epoch — a fenced
// ex-leader knows its successor's epoch and must promote strictly past
// it, or the documented recovery path (explicit Promote on a deposed
// leader) would mint the same epoch a live successor is writing under.
// The bump is persisted *before* the database turns writable, so a
// crash can lose a promotion but never produce a writable leader in an
// unfenced old epoch.
func (db *DB) Promote() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if st := db.State(); !st.Follower && !st.Fenced {
		return nil
	}
	if db.store != nil {
		if err := db.store.Sync(); err != nil {
			return fmt.Errorf("core: promote: fsync of the log tail failed: %w", err)
		}
		if got, want := db.store.LastSeq(), db.current().seq; got != want {
			return fmt.Errorf("%w: promote: durable log at generation %d, published state at %d", wal.ErrCorrupt, got, want)
		}
	}
	if _, err := db.setState(func(s NodeState) NodeState {
		next := s.MaxSeen + 1
		s.EpochState = wal.EpochState{Epoch: next, MaxSeen: next}
		s.Follower = false
		return s
	}); err != nil {
		return fmt.Errorf("core: promote: epoch bump not durable, still read-only: %w", err)
	}
	obsv.ReplicaPromotions.Inc()
	return nil
}

// Fence deposes the database on evidence of a higher epoch: mutations
// start failing with everr.ErrFenced, durably — the fencing state is
// persisted (under the database's OWN epoch, the one it was deposed
// from, with the higher epoch recorded as MaxSeen) before it takes
// effect, so a reopened ex-leader comes back read-only rather than
// silently writable, and a later Promote mints an epoch past the
// successor's rather than colliding with it. Evidence at or below the
// database's own epoch is ignored: only a strictly newer leadership
// term can depose. An already-fenced database still records evidence
// of an even higher epoch. On a follower, fencing reduces to adopting
// the higher epoch — the database is already read-only.
func (db *DB) Fence(higher uint64) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if _, err := db.setState(func(s NodeState) NodeState {
		switch {
		case higher <= s.Epoch:
		case s.Follower:
			s.Epoch = higher
		default:
			s.MaxSeen = max(s.MaxSeen, higher)
			s.Fenced = true
		}
		return s
	}); err != nil {
		return fmt.Errorf("core: fence not durable: %w", err)
	}
	return nil
}

// AdoptEpoch records a higher leader epoch heard on the replication
// stream. Followers call it when a frame or handshake carries an epoch
// past their own; lower or equal epochs are ignored. On a durable
// database the adopted epoch is persisted first, so a restarted
// follower still refuses streams from deposed leaders.
func (db *DB) AdoptEpoch(epoch uint64) error {
	if epoch <= db.Epoch() {
		return nil
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if _, err := db.setState(func(s NodeState) NodeState {
		s.Epoch = max(s.Epoch, epoch)
		return s
	}); err != nil {
		return fmt.Errorf("core: epoch adoption not durable: %w", err)
	}
	return nil
}
