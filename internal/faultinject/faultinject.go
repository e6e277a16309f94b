// Package faultinject lets tests force failures at named engine sites
// to prove the resilience layer works: that cancellation interrupts
// stalls, that internal panics are contained at the API boundary, and
// that StrategyAuto degrades to semi-naive evaluation when a clever
// plan fails.
//
// Production code never installs a hook, so the package is inert
// outside tests: every Fire call is a single atomic load until the
// first Set. Hooks may return an error (injected failure), panic
// (injected invariant violation), or block/sleep (injected stall —
// combine with a context deadline to exercise cancellation).
package faultinject

import (
	"errors"
	"sync"
	"sync/atomic"
)

// The named injection sites wired into the engines. Each site fires at
// the engine's natural failure boundary: once per chain compilation,
// magic rewrite, fixpoint round, down-phase level, or resolution step.
const (
	SiteChainCompile     = "chain.compile"
	SiteMagicRewrite     = "magic.rewrite"
	SiteSeminaiveIterate = "seminaive.iterate"
	SiteCountingLevel    = "counting.level"
	SiteTopdownStep      = "topdown.step"
)

// The I/O injection sites wired into the durability layer (internal/
// wal). The data sites (append, read) carry the bytes in flight, so a
// hook can tear a write short, flip bits, or truncate a read; the sync
// sites can fail an fsync or lie about it (return ErrSkipOp so the
// caller skips the real fsync but reports success — the classic
// firmware lie a recovery path must survive).
const (
	SiteWALAppend     = "wal.append"     // bytes of one framed record, pre-write
	SiteWALRead       = "wal.read"       // bytes of one segment, post-read
	SiteWALSync       = "wal.sync"       // before fsync of the log file
	SiteSnapshotWrite = "wal.snapshot"   // streamed bytes of one snapshot file, pre-write
	SiteStoreOpen     = "wal.store.open" // on Store open, before recovery
)

// The network injection sites wired into the replication layer
// (internal/replica). The data sites carry the bytes in flight on one
// side of the link, so a hook can partition it (return an error),
// hang it (block), tear a frame short, or flip bits; the lag site
// fires before each leader send, so a sleeping hook injects link
// delay without corrupting anything.
const (
	SiteReplicaSend = "replica.send" // bytes of one outbound frame/handshake, pre-write
	SiteReplicaRecv = "replica.recv" // bytes of one inbound read, post-read
	SiteReplicaLag  = "replica.lag"  // before each leader send (sleep = injected delay)
)

// The cluster injection sites wired into the coordination layer
// (internal/cluster) and the epoch store (internal/wal). The probe
// site fires before each coordinator liveness probe of the current
// leader — an erroring hook partitions the coordinator from the
// leader and drives an automated failover. The epoch data site carries
// the encoded epoch state about to be persisted, so a hook can tear or
// corrupt the fencing record itself.
const (
	SiteClusterProbe = "cluster.probe" // before each leader liveness probe
	SiteReplicaEpoch = "replica.epoch" // bytes of the epoch-state file, pre-write
)

// The self-healing-storage injection sites. The scrub data site
// carries each file image the online scrubber (internal/scrub) reads,
// so a hook can show the scrubber corruption the real disk does not
// have (or hide corruption it does); the digest data site carries the
// 8-byte state digest a follower is about to verify against its own,
// so a hook flipping a bit forces a divergence verdict without
// touching any durable state.
const (
	SiteScrubRead     = "scrub.read"     // bytes of one file image, post-read, scrubber only
	SiteReplicaDigest = "replica.digest" // the shipped 8-byte state digest, pre-verify
)

// ErrSkipOp, returned by a hook at a sync site, makes the caller skip
// the real operation while reporting success — an injected "fsync
// lie". Data already handed to the OS may then be lost on the next
// simulated crash.
var ErrSkipOp = errors.New("faultinject: skip the real operation, report success")

var (
	enabled atomic.Bool
	mu      sync.Mutex
	hooks   = make(map[string]func() error)
	// dataHooks transform bytes in flight at data sites.
	dataHooks = make(map[string]func([]byte) ([]byte, error))
)

// Set installs hook f at site (replacing any previous hook) and
// returns a restore function that removes it. Tests should defer the
// restore.
func Set(site string, f func() error) (restore func()) {
	mu.Lock()
	defer mu.Unlock()
	hooks[site] = f
	enabled.Store(true)
	return func() { Clear(site) }
}

// SetData installs a byte-transforming hook at a data site (replacing
// any previous one) and returns a restore function. The hook receives
// the bytes about to be written (or just read) and returns the bytes
// to use instead — shortened for a torn write or short read, bit-
// flipped for media corruption — or an error to fail the I/O outright.
func SetData(site string, f func([]byte) ([]byte, error)) (restore func()) {
	mu.Lock()
	defer mu.Unlock()
	dataHooks[site] = f
	enabled.Store(true)
	return func() { Clear(site) }
}

// Clear removes the hook(s) at site, if any.
func Clear(site string) {
	mu.Lock()
	defer mu.Unlock()
	delete(hooks, site)
	delete(dataHooks, site)
	enabled.Store(len(hooks) > 0 || len(dataHooks) > 0)
}

// Reset removes every hook.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	hooks = make(map[string]func() error)
	dataHooks = make(map[string]func([]byte) ([]byte, error))
	enabled.Store(false)
}

// Fire invokes the hook installed at site and returns its error. With
// no hooks installed anywhere it costs one atomic load.
func Fire(site string) error {
	if !enabled.Load() {
		return nil
	}
	mu.Lock()
	f := hooks[site]
	mu.Unlock()
	if f == nil {
		return nil
	}
	return f()
}

// FireData passes data through the hook installed at a data site. With
// no hook it returns data unchanged at the cost of one atomic load.
func FireData(site string, data []byte) ([]byte, error) {
	if !enabled.Load() {
		return data, nil
	}
	mu.Lock()
	f := dataHooks[site]
	mu.Unlock()
	if f == nil {
		return data, nil
	}
	return f(data)
}
