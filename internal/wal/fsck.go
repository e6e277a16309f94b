package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrNoStore reports a directory that holds no durable store at all —
// no snapshots and no log segments. It is a usage error, not
// corruption: there is no state whose integrity could be in question.
var ErrNoStore = errors.New("wal: no durable store in directory")

// Report is the result of an integrity check over a store directory.
type Report struct {
	Dir string
	// Checked lists every file examined, in check order.
	Checked []string
	// Problems lists every integrity violation found. Empty means the
	// store is clean. A torn tail on the final segment — the normal
	// artifact of a crash mid-append, which recovery repairs by
	// truncation — is still reported here (as a truncated record);
	// fsck is strict where recovery is lenient.
	Problems []string
	// Records is the total count of valid log records seen.
	Records int
	// LastSeq is the highest generation reachable from the on-disk
	// state (0 if none).
	LastSeq uint64
	// Partial marks an online check that did not see a consistent
	// directory image (a checkpoint pruned files between listing and
	// read): per-file verdicts hold, but cross-file conclusions —
	// coverage, LastSeq-reaches-published — were withheld.
	Partial bool
	// Online marks a report produced with live-writer leniencies (the
	// scrubber's mode) rather than the strict offline Fsck semantics.
	Online bool
}

// OK reports a clean store.
func (r *Report) OK() bool { return len(r.Problems) == 0 }

func (r *Report) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// String renders the report in the style of fsck: one line per file
// checked, one line per problem, and a verdict. Online (scrub) reports
// say so, since their leniencies make "clean" a weaker claim.
func (r *Report) String() string {
	label := "fsck"
	if r.Online {
		label = "scrub"
	}
	out := fmt.Sprintf("%s %s\n", label, r.Dir)
	for _, c := range r.Checked {
		out += "  checked " + c + "\n"
	}
	for _, p := range r.Problems {
		out += "  PROBLEM: " + p + "\n"
	}
	if r.OK() {
		out += fmt.Sprintf("clean: %d log records, last generation %d\n", r.Records, r.LastSeq)
	} else {
		out += fmt.Sprintf("CORRUPT: %d problem(s) found\n", len(r.Problems))
	}
	return out
}

// Fsck validates every snapshot and log segment in dir without
// modifying anything: frame checksums, record decodability, term-ID
// referential integrity (every row word resolves through its file's
// dictionary), generation monotonicity and contiguity, and
// snapshot-to-log coverage. The returned error is non-nil only for
// I/O failures reading the directory itself; integrity violations go
// in the report. The checks themselves live in the streaming checker,
// which the online scrubber (internal/scrub) runs against live stores
// through VerifyDir; Fsck is the strict offline walk over a quiescent
// one.
func Fsck(dir string) (*Report, error) {
	return VerifyDir(dir, false, nil)
}

// VerifyDir runs one full verification pass over dir: offline (strict,
// Fsck semantics) or online (live-writer leniencies; see checker).
// readFile overrides how file images are obtained — the online
// scrubber uses it to rate-limit and to pass bytes through the
// scrub.read fault site — and defaults to os.ReadFile. The listing is
// the read-only scan (no .tmp cleanup): verification never modifies
// the directory it checks.
func VerifyDir(dir string, online bool, readFile func(string) ([]byte, error)) (*Report, error) {
	if readFile == nil {
		readFile = os.ReadFile
	}
	snaps, segs, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 && len(segs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoStore, dir)
	}
	c := &checker{rep: &Report{Dir: dir, Online: online}}
	for _, seq := range snaps {
		data, err := readFile(filepath.Join(dir, snapName(seq)))
		c.snapshot(seq, data, err)
	}
	for i, start := range segs {
		data, err := readFile(filepath.Join(dir, segName(start)))
		c.segment(start, data, i == len(segs)-1, err)
	}
	return c.finish(), nil
}
