// Package replica replicates a durable database over a streaming
// transport: a leader serves its write-ahead log to followers, which
// apply the shipped records through the ordinary recovery machinery
// and publish read-only generations.
//
// The design rides the chain-split framing end to end: replication
// ships only base mutations (the WAL's Exec and Facts records), never
// derived state — each follower re-derives bottom-up exactly as the
// leader does, so applying the same record sequence reproduces the
// leader's generations bit-identically. The wire format reuses the
// WAL frame codec verbatim (length | CRC-32C | payload), so every
// shipped byte is checksummed and a torn or corrupted frame is
// detected, the connection dropped and retried — a bad frame is never
// applied.
//
// # Wire protocol
//
// Every byte on the wire is a wal.Frame (length | CRC-32C | payload) —
// the handshake included, because since v3 it carries the epoch, and a
// bit flip in an unprotected epoch would be adopted as fencing
// evidence. A follower connects over TCP and sends one frame whose
// payload is the magic "CSREPL03" followed by its current generation
// (uint64 BE) and its current leader epoch (uint64 BE). The leader
// answers with a frame holding the magic plus its own epoch (uint64
// BE) and then streams frames whose payload begins with a message
// type byte, the leader's epoch, and its published generation at the
// moment the frame was built:
//
//	MsgRecord    1 | epoch uint64 BE | leader generation uint64 BE | record payload (wal.EncodeRecord, stream dict)
//	MsgSnapshot  2 | epoch uint64 BE | leader generation uint64 BE | snapshot image (wal.EncodeSnapshot)
//	MsgHeartbeat 3 | epoch uint64 BE | leader generation uint64 BE
//	MsgDigest    4 | epoch uint64 BE | digest generation uint64 BE | state digest uint64 BE
//
// MsgDigest is the anti-entropy check: the generation field names the
// generation the digest was computed at (a pinned read, not the
// leader's position "now"), and the body is the leader's chained state
// digest over every fact up to that generation (core.DB.StateDigest).
// A follower holds the claim until its own generation reaches the
// claimed one, then compares digests. A mismatch is not a wire error —
// the frame's CRC proved the bytes arrived intact — it is divergence:
// the follower's *state* disagrees with the leader's at a generation
// both have applied, which per-record CRCs can never detect (a bad
// apply, a bit flip in memory or on the follower's disk after the
// append). Divergence fails the session with ErrDivergence, is never
// retried (reconnecting cannot repair state), and reports through
// FollowerConfig.OnDivergence so the cluster layer can quarantine and
// re-seed the node.
//
// Records ship in generation order, re-encoded against a
// per-connection dictionary (segment-local dictionaries from disk
// would dangle across segment boundaries the follower never sees). A
// follower whose position has left the leader's retained history gets
// a full snapshot first (MsgSnapshot), then records from the
// snapshot's generation. Every frame carries the leader's current
// generation — not just heartbeats — so a follower streaming a
// backlog after a partition measures staleness against where the
// leader is *now*, and a catch-up record can never masquerade as
// being in sync. Frames also double as liveness: a follower that
// hears nothing for its read timeout declares the leader lost and
// reconnects (or is promoted).
//
// # Epoch fencing
//
// The epoch on the wire is the split-brain defense (see
// docs/cluster.md). Promotion bumps the promoted database's durable
// epoch, so the new leader streams under a strictly higher epoch than
// the one it deposed. Both directions enforce it: a follower refuses
// an echo or frame whose epoch is below its own (a deposed leader
// cannot feed followers that have heard from its successor, even
// after everyone restarts — epochs are persisted), and adopts any
// higher epoch it hears; a leader that receives a handshake carrying
// a higher epoch fences itself durably (core.DB.Fence) — its
// mutations fail with everr.ErrFenced from then on — and refuses the
// stream. A fenced leader also stops serving replication: its
// history may diverge from the successor's past the fence point.
package replica

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chainsplit/internal/core"
	"chainsplit/internal/everr"
	"chainsplit/internal/faultinject"
	"chainsplit/internal/obsv"
	"chainsplit/internal/retry"
	"chainsplit/internal/wal"
)

// Message types on the replication stream.
const (
	MsgRecord    byte = 1
	MsgSnapshot  byte = 2
	MsgHeartbeat byte = 3
	MsgDigest    byte = 4
)

// ErrDivergence reports an anti-entropy digest mismatch: the follower
// reached the leader's claimed generation with different state. It
// wraps wal.ErrCorrupt (divergence IS corruption, somewhere), is never
// retryable (reconnecting re-ships records the follower already has;
// only a wipe-and-reseed repairs state), and surfaces through
// FollowerConfig.OnDivergence.
var ErrDivergence = fmt.Errorf("%w: follower state diverged from leader (anti-entropy digest mismatch)", wal.ErrCorrupt)

// handshakeMagic opens every follower connection; the leader echoes
// it. The trailing digits version the protocol.
var handshakeMagic = []byte("CSREPL03")

// Stream timing.
const (
	// heartbeat is the interval between heartbeat frames on an idle
	// connection.
	heartbeat = 25 * time.Millisecond
	// pollEvery is the interval at which an idle connection re-polls
	// the log tail for new records.
	pollEvery = 2 * time.Millisecond
	// readTimeout is how long a follower waits for any frame (a record
	// or a heartbeat) before declaring the leader lost and
	// reconnecting: ten heartbeat intervals.
	readTimeout = 250 * time.Millisecond
	dialTimeout = time.Second
	// digestEvery is the anti-entropy cadence: how often an idle
	// connection ships a state digest for the follower to verify.
	digestEvery = 100 * time.Millisecond
	// reconnectEventWindow gates reconnect-failure *event* emission: a
	// follower stuck behind a partition retries every few milliseconds,
	// and per-attempt events would be pure noise. The per-attempt
	// counter (ReplicaReconnects) still counts every attempt; the event
	// counter (ReconnectEvents) bumps at most once per window.
	reconnectEventWindow = time.Second
	// writeTimeout bounds every leader-side write. A silently
	// partitioned or stalled follower would otherwise block conn.Write
	// until the kernel's TCP retransmission timeout (~15 minutes) once
	// the socket buffer fills, pinning the serveConn goroutine and its
	// wal.Tail fd (which holds pruned segments' disk space). Generous
	// enough for a full snapshot ship on a slow link, tiny next to the
	// kernel default.
	writeTimeout = 2 * time.Second
)

// send pushes one pre-framed chunk through the fault sites and onto
// the connection: the lag site first (a sleeping hook injects link
// delay), then the send data site (which can partition the link or
// mangle the bytes), then the actual write.
func send(conn net.Conn, b []byte) error {
	if err := faultinject.Fire(faultinject.SiteReplicaLag); err != nil {
		return err
	}
	b, err := faultinject.FireData(faultinject.SiteReplicaSend, b)
	if err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	n, err := conn.Write(b)
	obsv.ReplicaBytesShipped.Add(int64(n))
	return err
}

// recvReader passes everything read from the connection through the
// recv data site, so tests can inject short reads, bit flips, or a
// receive-side partition.
type recvReader struct{ c net.Conn }

func (r recvReader) Read(p []byte) (int, error) {
	n, err := r.c.Read(p)
	if n > 0 {
		b, ferr := faultinject.FireData(faultinject.SiteReplicaRecv, p[:n])
		if ferr != nil {
			return 0, ferr
		}
		n = copy(p, b)
	}
	return n, err
}

// Leader serves a durable database's WAL to followers.
type Leader struct {
	db  *core.DB
	dir string
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// Serve starts serving db's write-ahead log on addr (e.g.
// "127.0.0.1:0"); the database must be durable — replication streams
// the on-disk log. Serving is read-only with respect to db: the
// leader tails the log files without touching the store's writer
// state, so queries and mutations proceed untouched.
func Serve(db *core.DB, addr string) (*Leader, error) {
	dir := db.DurableDir()
	if dir == "" {
		return nil, errors.New("replica: only a durable database can lead (no store directory)")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Leader{
		db: db, dir: dir, ln: ln,
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the address the leader listens on.
func (l *Leader) Addr() string { return l.ln.Addr().String() }

// Close stops accepting followers and tears down every replication
// connection. The database itself is untouched.
func (l *Leader) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.stop)
	err := l.ln.Close()
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

func (l *Leader) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			select {
			case <-l.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (fd exhaustion, aborted
			// connection): back off briefly and keep serving rather
			// than silently going deaf to new followers.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go l.serveConn(conn)
	}
}

// serveConn runs one follower connection to completion. Any error —
// injected partition, dead peer, poisoned tail — just ends the
// connection; the follower reconnects and resumes from its durable
// position.
func (l *Leader) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		l.wg.Done()
	}()

	// Handshake: magic + the follower's resume position + its epoch,
	// CRC-framed — a mangled epoch must fail the connection, never be
	// mistaken for fencing evidence.
	conn.SetReadDeadline(time.Now().Add(dialTimeout))
	hs, err := wal.ReadFrame(conn)
	if err != nil || len(hs) != 24 {
		return
	}
	conn.SetReadDeadline(time.Time{})
	if string(hs[:8]) != string(handshakeMagic) {
		return
	}
	st := l.db.State()
	if fe := binary.BigEndian.Uint64(hs[16:]); fe > st.Epoch {
		// The follower has heard from a leader of a higher epoch: this
		// leader has been deposed and just found out. Fence durably —
		// local mutations must start failing before this connection is
		// even answered — and refuse the stream.
		l.db.Fence(fe)
		return
	}
	if st.Fenced {
		// A deposed leader stops replicating: its history may diverge
		// from the successor's, and feeding it to followers would fork
		// them too.
		return
	}
	after := binary.BigEndian.Uint64(hs[8:16])
	if after > l.db.Generation() {
		// A follower ahead of this leader has diverged (it applied
		// generations this log never held). Refuse the stream rather
		// than ship records that would silently fork its history.
		return
	}
	var echo [16]byte
	copy(echo[:8], handshakeMagic)
	binary.BigEndian.PutUint64(echo[8:], st.Epoch)
	if err := send(conn, wal.Frame(echo[:])); err != nil {
		return
	}

	tail, err := l.openTail(conn, after)
	if err != nil {
		return
	}
	// tail is reassigned (and may be nil) after a mid-stream
	// re-snapshot; close whatever is current on the way out.
	defer func() {
		if tail != nil {
			tail.Close()
		}
	}()

	enc := wal.NewEncDict()
	lastBeat := time.Now()
	lastDigest := time.Now()
	// idle paces the idle polls: one drained timer, re-armed on each
	// idle pass (time.After would allocate a timer per pass).
	idle := time.NewTimer(0)
	<-idle.C
	for {
		select {
		case <-l.stop:
			return
		default:
		}
		if l.db.State().Fenced {
			// Deposed mid-stream: the handshake check caught fencing at
			// connect time, this catches it on established connections.
			// Past the fence point this leader's history may diverge from
			// the successor's, so shipping the backlog any further could
			// push followers onto a dead branch their resume handshake
			// with the new leader would then refuse as diverged.
			return
		}
		recs, perr := tail.Poll()
		for _, rec := range recs {
			payload, err := wal.EncodeRecord(rec, enc)
			if err != nil {
				return
			}
			if err := send(conn, l.frame(MsgRecord, payload)); err != nil {
				return
			}
			obsv.ReplicaRecordsShipped.Inc()
		}
		if len(recs) > 0 {
			// Records carry the leader generation too, so they serve a
			// heartbeat's purpose; no separate beat is due while the
			// stream flows.
			lastBeat = time.Now()
		}
		if perr != nil {
			// The tail is unusable — most commonly ErrTailLost after a
			// rotation pruned the follower's next segment while it
			// lagged. Restart the stream from a full snapshot; any
			// other failure (corruption in our own log) ends the
			// connection, and the next connect will fail the same way
			// rather than ship bad state.
			if !errors.Is(perr, wal.ErrTailLost) && !isMissingSegment(perr) {
				return
			}
			tail.Close()
			tail, err = l.openTail(conn, ^uint64(0))
			if err != nil {
				return
			}
			enc = wal.NewEncDict()
			continue
		}
		if len(recs) == 0 {
			// Anti-entropy rides the idle stream: a digest is only
			// meaningful against a generation the follower can reach, so
			// it is sent between records, never racing a batch. Digest
			// frames carry a generation too, so they double as a beat.
			if time.Since(lastDigest) >= digestEvery {
				if err := send(conn, l.digestFrame()); err != nil {
					return
				}
				lastDigest = time.Now()
				lastBeat = lastDigest
			}
			if time.Since(lastBeat) >= heartbeat {
				if err := send(conn, l.frame(MsgHeartbeat, nil)); err != nil {
					return
				}
				lastBeat = time.Now()
			}
			idle.Reset(pollEvery)
			select {
			case <-l.stop:
				return
			case <-idle.C:
			}
		}
	}
}

// openTail opens the log tail at position after, falling back to a
// full snapshot ship when that position has left retained history
// (after = ^uint64(0) forces the snapshot path). The returned tail is
// positioned so the next shipped record continues the stream the
// follower has durably applied.
func (l *Leader) openTail(conn net.Conn, after uint64) (*wal.Tail, error) {
	if after != ^uint64(0) {
		tail, err := wal.OpenTail(l.dir, after)
		if err == nil {
			return tail, nil
		}
		if !errors.Is(err, wal.ErrTailLost) {
			return nil, err
		}
	}
	snap := l.db.SnapshotImage()
	data, err := wal.EncodeSnapshot(snap)
	if err != nil {
		return nil, err
	}
	if err := send(conn, l.frame(MsgSnapshot, data)); err != nil {
		return nil, err
	}
	obsv.ReplicaSnapshotsShipped.Inc()
	return wal.OpenTail(l.dir, snap.Seq)
}

// frame builds one replication frame: the message type byte, the
// leader's epoch, its published generation as of this instant, then
// the body. Stamping the generation on every frame (not just
// heartbeats) is what keeps follower staleness honest during backlog
// catch-up; stamping the epoch is what lets a follower reject a
// deposed leader mid-stream.
func (l *Leader) frame(typ byte, body []byte) []byte {
	buf := make([]byte, 17, 17+len(body))
	buf[0] = typ
	binary.BigEndian.PutUint64(buf[1:9], l.db.Epoch())
	binary.BigEndian.PutUint64(buf[9:17], l.db.Generation())
	return wal.Frame(append(buf, body...))
}

// digestFrame builds one anti-entropy frame. Unlike frame(), whose
// epoch and generation reads may straddle a concurrent publish, the
// generation here comes from the same pinned StateDigest read as the
// digest itself — the claim "at generation G the digest is D" must be
// internally consistent or honest followers would flag divergence.
func (l *Leader) digestFrame() []byte {
	gen, digest := l.db.StateDigest()
	var buf [25]byte
	buf[0] = MsgDigest
	binary.BigEndian.PutUint64(buf[1:9], l.db.Epoch())
	binary.BigEndian.PutUint64(buf[9:17], gen)
	binary.BigEndian.PutUint64(buf[17:25], digest)
	return wal.Frame(buf[:])
}

// isMissingSegment reports a rotation race: the tail tried to open a
// segment the leader pruned between the directory scan and the open.
// Only a vanished file counts — a persistent open failure (EACCES, fd
// exhaustion) must end the connection, not loop it through full
// snapshot re-ships.
func isMissingSegment(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}

// FollowerConfig tunes a follower session; the zero value means
// defaults.
type FollowerConfig struct {
	// Retry is the reconnect backoff policy. The zero value becomes
	// effectively-unbounded attempts with 5ms..250ms jittered backoff
	// and every error retryable (connection failures are not in the
	// everr taxonomy, so retry.DefaultRetryable would refuse them).
	// Set MaxAttempts to bound how long a session outlives its leader
	// — including 1 for a single attempt, per retry.Policy — or
	// Retryable to stop on errors you consider fatal. ErrDivergence is
	// never retried regardless of the policy: reconnecting cannot
	// repair diverged state.
	Retry retry.Policy
	// OnDivergence is called (once, from the session goroutine) when
	// the session ends on an anti-entropy digest mismatch. The cluster
	// layer wires it to quarantine-and-reseed; the session itself only
	// stops streaming.
	OnDivergence func(error)
}

// Session is a running follower: a background goroutine that tails
// the leader, applies shipped records to the (read-only) database,
// and tracks staleness. Stop it before promoting the database.
type Session struct {
	db   *core.DB
	addr string
	cfg  FollowerConfig

	// lastSync is the wall clock (UnixNano) of the last moment the
	// follower knew it was caught up with the leader's published
	// generation; Staleness measures from it.
	lastSync  atomic.Int64
	connected atomic.Bool
	diverged  atomic.Bool

	mu      sync.Mutex
	conn    net.Conn
	termErr error // set before done closes; see Err

	cancel func()
	done   chan struct{}
}

// StartFollower begins tailing the leader at addr into db, which must
// be a follower database (core.NewFollower / core.OpenFollowerDir).
// The session runs until Stop; connection failures reconnect with the
// configured backoff and resume from the database's durable position.
func StartFollower(db *core.DB, addr string, cfg FollowerConfig) (*Session, error) {
	if !db.State().Follower {
		return nil, errors.New("replica: StartFollower needs a follower database")
	}
	pol := cfg.Retry
	if pol.MaxAttempts == 0 {
		// Only the zero value defaults to unbounded: a caller-supplied
		// MaxAttempts (including 1, "retries disabled" per retry.Policy)
		// is a deliberate bound and must be honored.
		pol.MaxAttempts = 1 << 30
	}
	if pol.BaseDelay <= 0 {
		pol.BaseDelay = 5 * time.Millisecond
	}
	if pol.MaxDelay <= 0 {
		pol.MaxDelay = 250 * time.Millisecond
	}
	if pol.Jitter == 0 {
		pol.Jitter = 0.2
	}
	if pol.Retryable == nil {
		pol.Retryable = func(error) bool { return true }
	}
	// Divergence is fatal no matter what the caller's policy says:
	// every reconnect would just re-verify the same diverged state.
	inner := pol.Retryable
	pol.Retryable = func(err error) bool {
		return !errors.Is(err, ErrDivergence) && inner(err)
	}
	cfg.Retry = pol

	// lastSync stays 0 ("never synced") until the first frame proves
	// the follower level with the leader: a freshly started session
	// must report maximal staleness, not a fresh sync point it never
	// earned — bounded-staleness reads shed until the stream delivers.
	s := &Session{db: db, addr: addr, cfg: cfg, done: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() {
		defer close(s.done)
		first := true
		var lastEvent time.Time
		_, err := s.cfg.Retry.Do(ctx, func() error {
			if !first {
				obsv.ReplicaReconnects.Inc()
				// Per-attempt counting stays (cheap, and capacity math
				// wants the true attempt rate); *event* emission is
				// backoff-gated to one per window so a long partition
				// reads as one ongoing incident, not thousands.
				if lastEvent.IsZero() || time.Since(lastEvent) >= reconnectEventWindow {
					obsv.ReconnectEvents.Inc()
					lastEvent = time.Now()
				}
			}
			first = false
			err := s.streamOnce(ctx)
			if err == nil {
				// A cleanly closed stream still means the leader went
				// away; keep reconnecting until stopped.
				err = errors.New("replica: stream ended")
			}
			return err
		})
		s.mu.Lock()
		s.termErr = err
		s.mu.Unlock()
		if err != nil && errors.Is(err, ErrDivergence) {
			s.diverged.Store(true)
			if s.cfg.OnDivergence != nil {
				s.cfg.OnDivergence(err)
			}
		}
	}()
	return s, nil
}

// streamOnce runs one connection: dial, handshake, then apply frames
// until something fails. Every failure path drops the connection
// without applying the offending frame — corrupt data never reaches
// the database, it is re-requested on the next connect.
func (s *Session) streamOnce(ctx context.Context) error {
	conn, err := net.DialTimeout("tcp", s.addr, dialTimeout)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.conn = nil
		s.mu.Unlock()
		s.connected.Store(false)
		conn.Close()
	}()

	var hs [24]byte
	copy(hs[:8], handshakeMagic)
	binary.BigEndian.PutUint64(hs[8:16], s.db.Generation())
	binary.BigEndian.PutUint64(hs[16:], s.db.Epoch())
	conn.SetWriteDeadline(time.Now().Add(dialTimeout))
	if _, err := conn.Write(wal.Frame(hs[:])); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})
	r := recvReader{conn}
	conn.SetReadDeadline(time.Now().Add(dialTimeout))
	echo, err := wal.ReadFrame(r)
	if err != nil {
		return err
	}
	if len(echo) != 16 || string(echo[:8]) != string(handshakeMagic) {
		return fmt.Errorf("%w: replication handshake echo mismatch", wal.ErrCorrupt)
	}
	if epoch := binary.BigEndian.Uint64(echo[8:]); epoch < s.db.Epoch() {
		// A leader of a lower epoch is a deposed leader this follower
		// has already outlived (it heard from the successor). Refuse —
		// applying its records would fork the follower's history onto
		// a dead branch.
		return everr.Tag(fmt.Sprintf("replica: leader at deposed epoch %d, follower at %d", epoch, s.db.Epoch()), everr.ErrFenced)
	} else if err := s.db.AdoptEpoch(epoch); err != nil {
		return err
	}
	s.connected.Store(true)

	dec := wal.NewDecDict()
	// The pending anti-entropy claim: "at generation pendingGen the
	// leader's digest was pendingDigest". Held until this follower's
	// generation reaches the claimed one (checked after every frame, so
	// a claim received mid-backlog verifies the moment the applying
	// record draws level), dropped if a snapshot bootstrap jumps past
	// it — a digest for a generation this follower never materialized
	// is unverifiable, not wrong.
	var pendingGen, pendingDigest uint64
	havePending := false
	checkDigest := func() error {
		if !havePending {
			return nil
		}
		gen, got := s.db.StateDigest()
		if gen < pendingGen {
			return nil
		}
		havePending = false
		if gen > pendingGen {
			return nil
		}
		if got != pendingDigest {
			obsv.DigestDivergences.Inc()
			return fmt.Errorf("%w: at generation %d follower digest %016x, leader claims %016x", ErrDivergence, pendingGen, got, pendingDigest)
		}
		obsv.DigestsVerified.Inc()
		return nil
	}
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		conn.SetReadDeadline(time.Now().Add(readTimeout))
		payload, err := wal.ReadFrame(r)
		if err != nil {
			// Timeout = leader loss; corrupt frame = poisoned stream.
			// Either way: drop and reconnect, never apply.
			return err
		}
		if len(payload) < 17 {
			return fmt.Errorf("%w: replication frame of %d bytes", wal.ErrCorrupt, len(payload))
		}
		// Every frame opens with the leader's epoch and its generation
		// as of the moment the frame was built. A frame from a lower
		// epoch is a deposed leader still talking — drop the stream
		// before applying anything from the dead branch; a higher epoch
		// is adopted (and persisted) before the frame is applied, so a
		// restart cannot forget which leaders are already outlived.
		epoch := binary.BigEndian.Uint64(payload[1:9])
		if epoch < s.db.Epoch() {
			return everr.Tag(fmt.Sprintf("replica: frame from deposed epoch %d, follower at %d", epoch, s.db.Epoch()), everr.ErrFenced)
		}
		if err := s.db.AdoptEpoch(epoch); err != nil {
			return err
		}
		// Only reaching a generation heard *this* recently counts as in
		// sync: a record applied mid-backlog has rec.Seq far below the
		// gen riding on its own frame, so catch-up after a partition
		// stays visibly stale until the follower actually draws level.
		gen := binary.BigEndian.Uint64(payload[9:17])
		body := payload[17:]
		switch payload[0] {
		case MsgRecord:
			rec, err := wal.DecodeRecord(body, dec)
			if err != nil {
				return err
			}
			// rec.Seq <= Generation() is a duplicate after a snapshot
			// restart mid-stream; skipping it still falls through to
			// the sync check below.
			if rec.Seq > s.db.Generation() {
				if err := s.db.ApplyReplica(rec); err != nil {
					return err
				}
			}
		case MsgSnapshot:
			snap, err := wal.DecodeSnapshot(body)
			if err != nil {
				return err
			}
			if err := s.db.BootstrapReplica(snap); err != nil {
				return err
			}
			dec = wal.NewDecDict()
		case MsgHeartbeat:
			if len(body) != 0 {
				return fmt.Errorf("%w: heartbeat frame of %d bytes", wal.ErrCorrupt, len(payload))
			}
		case MsgDigest:
			if len(body) != 8 {
				return fmt.Errorf("%w: digest frame of %d bytes", wal.ErrCorrupt, len(payload))
			}
			fb, ferr := faultinject.FireData(faultinject.SiteReplicaDigest, body)
			if ferr != nil {
				return ferr
			}
			pendingGen, pendingDigest, havePending = gen, binary.BigEndian.Uint64(fb), true
		default:
			return fmt.Errorf("%w: unknown replication message type %d", wal.ErrCorrupt, payload[0])
		}
		if err := checkDigest(); err != nil {
			return err
		}
		if s.db.Generation() >= gen {
			s.lastSync.Store(time.Now().UnixNano())
		}
	}
}

// StalenessUnknown is the Staleness of a session that has never had a
// sync point: effectively infinite, so any finite staleness bound
// sheds. Reporting "maximal", not zero, is the honest answer for a
// follower that has not yet proven itself level with its leader.
const StalenessUnknown = time.Duration(1<<63 - 1)

// Staleness returns how long ago the follower last knew it was caught
// up with the leader's published generation. It grows while the
// follower lags, is partitioned, or the leader is down; the serving
// layer sheds reads with ErrStale when it exceeds the configured
// bound. Before the first sync point — a fresh session that has not
// yet heard a frame proving it level — it is StalenessUnknown.
func (s *Session) Staleness() time.Duration {
	last := s.lastSync.Load()
	if last == 0 {
		return StalenessUnknown
	}
	return time.Since(time.Unix(0, last))
}

// Connected reports whether a replication stream is currently up.
func (s *Session) Connected() bool { return s.connected.Load() }

// Diverged reports whether the session ended on an anti-entropy digest
// mismatch (ErrDivergence). A diverged session has stopped streaming
// for good; the node needs quarantine-and-reseed, not a reconnect.
func (s *Session) Diverged() bool { return s.diverged.Load() }

// Err returns the error that ended the session, nil while it is still
// running. A session with a bounded Retry policy surfaces its terminal
// failure here — this is how callers observe that a stream died on a
// corrupt frame (errors.Is(err, wal.ErrCorrupt)) or a divergence
// (ErrDivergence) rather than a transient network fault; a session
// ended by Stop reports the cancellation.
func (s *Session) Err() error {
	select {
	case <-s.done:
	default:
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.termErr
}

// Stop ends the session: no more records will be applied once it
// returns. The database stays a follower; promote it separately.
func (s *Session) Stop() {
	s.cancel()
	s.mu.Lock()
	if s.conn != nil {
		s.conn.Close()
	}
	s.mu.Unlock()
	<-s.done
}
