// Package scrub is the online half of self-healing storage: a
// rate-limited background scrubber that incrementally re-verifies a
// live durable store — WAL frame checksums, record decodability,
// snapshot integrity, dictionary referential integrity, generation
// monotonicity and snapshot-to-log coverage — without blocking the
// writer. The checks are exactly the offline Fsck's (both drive
// wal.VerifyDir); the scrubber adds the live-writer leniencies (an
// in-flight append on the final segment is "not yet", a file pruned by
// a checkpoint mid-pass is skipped) and an end-to-end invariant the
// offline path cannot state: the durable image must reach every
// generation that was published before the pass began, because
// publish-after-log promises the log is never behind the published
// state.
//
// Reads are throttled to a byte budget per second so a scrub pass over
// a large store steals bounded I/O bandwidth from serving. Detection
// reports through OnCorrupt; the cluster layer wires that to
// quarantine-and-reseed.
package scrub

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chainsplit/internal/faultinject"
	"chainsplit/internal/obsv"
	"chainsplit/internal/wal"
)

// maxBytesPerSec throttles a pass's file reads.
const maxBytesPerSec = 8 << 20

// Config configures a Scrubber.
type Config struct {
	// Dir is the durable store directory to verify.
	Dir string
	// Every is the idle interval between passes (default 30s).
	Every time.Duration
	// Published, when set, is sampled before each pass; a clean,
	// complete pass whose durable image does not reach that generation
	// is reported as corruption (durable state lost behind the
	// published state).
	Published func() uint64
	// OnCorrupt is called (from the scrubber goroutine, or the Pass
	// caller) with each failed report.
	OnCorrupt func(*wal.Report)
}

// Scrubber re-verifies one store directory on a cadence.
type Scrubber struct {
	cfg Config

	last atomic.Pointer[wal.Report]

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// New returns a scrubber over cfg.Dir; Start begins the background
// passes, or call Pass directly for a one-shot (chainsplitctl -scrub).
func New(cfg Config) *Scrubber {
	if cfg.Every <= 0 {
		cfg.Every = 30 * time.Second
	}
	return &Scrubber{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the background pass loop. Idempotent.
func (s *Scrubber) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	go s.run()
}

// Stop halts the loop and waits for any in-flight pass to finish (a
// stopped scrubber finishes its current pass unthrottled rather than
// abandoning it half-read).
func (s *Scrubber) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.mu.Unlock()
	<-s.done
}

// LastReport returns the most recent pass's report (nil before the
// first completed pass).
func (s *Scrubber) LastReport() *wal.Report { return s.last.Load() }

func (s *Scrubber) run() {
	defer close(s.done)
	t := time.NewTimer(s.cfg.Every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.Pass()
		t.Reset(s.cfg.Every)
	}
}

// Pass runs one verification pass and returns its report. A directory
// with no store yet is a clean no-op, not an error; the returned error
// reports only I/O failure listing the directory itself — integrity
// violations go in the report (and through OnCorrupt).
func (s *Scrubber) Pass() (*wal.Report, error) {
	var published uint64
	if s.cfg.Published != nil {
		published = s.cfg.Published()
	}
	rep, err := wal.VerifyDir(s.cfg.Dir, true, s.readFile)
	if err != nil {
		if errors.Is(err, wal.ErrNoStore) || os.IsNotExist(err) {
			return &wal.Report{Dir: s.cfg.Dir}, nil
		}
		return nil, err
	}
	// Publish-after-log: every generation published before this pass
	// began must already be durable, so a complete pass that cannot
	// reach it has lost acknowledged state. (A partial pass saw files
	// pruned mid-walk and withholds cross-file verdicts.)
	if !rep.Partial && published > rep.LastSeq {
		rep.Problems = append(rep.Problems,
			fmt.Sprintf("durable state reaches generation %d, but generation %d was already published", rep.LastSeq, published))
	}
	obsv.ScrubPasses.Inc()
	s.last.Store(rep)
	if !rep.OK() {
		obsv.ScrubCorruptions.Inc()
		if s.cfg.OnCorrupt != nil {
			s.cfg.OnCorrupt(rep)
		}
	}
	return rep, nil
}

// readFile reads one file image, passes it through the scrub.read
// fault site, and charges it against the pass's byte budget.
func (s *Scrubber) readFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	data, err = faultinject.FireData(faultinject.SiteScrubRead, data)
	if err != nil {
		return nil, err
	}
	s.throttle(len(data))
	return data, nil
}

// throttle sleeps long enough that reads average maxBytesPerSec,
// charged per file after the read (segments are bounded by the
// snapshot cadence, so per-file granularity bounds the burst). A
// stop-requested scrubber skips the sleep and lets the pass drain.
func (s *Scrubber) throttle(n int) {
	d := time.Duration(int64(n) * int64(time.Second) / maxBytesPerSec)
	if d <= 0 {
		return
	}
	select {
	case <-s.stop:
	case <-time.After(d):
	}
}

// Corruption renders a failed report as one error matching
// wal.ErrCorrupt, for callers that propagate scrub verdicts through
// the error taxonomy.
func Corruption(rep *wal.Report) error {
	if rep.OK() {
		return nil
	}
	return fmt.Errorf("%w: scrub %s: %s", wal.ErrCorrupt, rep.Dir, strings.Join(rep.Problems, "; "))
}
