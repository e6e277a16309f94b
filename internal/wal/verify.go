package wal

import "os"

// checker is the streaming integrity verifier behind both integrity
// paths: the offline Fsck (strict, whole-directory, exclusive) and the
// online scrubber (internal/scrub), which runs the same checks against
// a store a live writer is still appending to. VerifyDir owns the file
// walk — list, read, feed — and the checker owns every judgment: frame
// checksums, record decodability, dictionary referential integrity,
// per-segment and cross-segment generation order, and snapshot-to-log
// coverage.
//
// Online mode relaxes exactly the conditions a live writer makes
// normal, nothing else:
//
//   - the final segment may end in an append in flight (a partial
//     frame, a zero-filled tail, or a final frame whose checksum does
//     not match yet), and
//   - files may vanish between the directory listing and the read (a
//     checkpoint pruned them); a vanished file suppresses the
//     cross-file coverage verdict, since the walk no longer saw a
//     consistent directory image.
//
// Feed order is fixed: every snapshot first (ascending), then every
// segment (ascending), then finish.
type checker struct {
	rep      *Report // rep.Online selects the live-writer leniencies
	base     uint64
	haveBase bool
	run      seqRun
	lastSeq  uint64
	// firstPast is the first record generation past the snapshot base,
	// tracked during the segment walk so the coverage check needs no
	// second pass over the files.
	firstPast uint64
	vanished  bool
}

// snapshot feeds one snapshot file (named for seq) read as data;
// readErr is the read failure, if any. Every snapshot on disk must
// validate, even superseded leftovers — a snapshot that fails its
// checksum is corruption whether or not recovery would pick it.
func (c *checker) snapshot(seq uint64, data []byte, readErr error) {
	name := snapName(seq)
	if readErr != nil {
		if c.skipVanished(name, readErr) {
			return
		}
		c.rep.Checked = append(c.rep.Checked, name)
		c.rep.problemf("%s: %v", name, readErr)
		return
	}
	c.rep.Checked = append(c.rep.Checked, name)
	if _, err := snapshotAt(seq, data); err != nil {
		c.rep.problemf("%s: %v", name, err)
		return
	}
	if !c.haveBase || seq > c.base {
		c.base, c.haveBase = seq, true
	}
	if seq > c.lastSeq {
		c.lastSeq = seq
	}
}

// segment feeds one log segment (starting at generation start) read
// as data; final marks the last segment of the listing, readErr the
// read failure, if any.
func (c *checker) segment(start uint64, data []byte, final bool, readErr error) {
	name := segName(start)
	if readErr != nil {
		if c.skipVanished(name, readErr) {
			return
		}
		c.rep.Checked = append(c.rep.Checked, name)
		c.rep.problemf("%s: %v", name, readErr)
		return
	}
	c.rep.Checked = append(c.rep.Checked, name)
	recs, end, tail, err := scanSegment(data, &readDict{})
	switch {
	case err != nil:
		c.rep.problemf("%s: %v", name, err)
	case tail == tailNone || c.rep.Online && final:
		// A live final segment may end in an append in flight.
	case tail == tailBadLastSum:
		c.rep.problemf("%s: checksum mismatch in frame at offset %d", name, end)
	case final:
		c.rep.problemf("%s: truncated record (torn tail) at offset %d — recovery will drop it", name, end)
	default:
		c.rep.problemf("%s: truncated record at offset %d in a non-final segment", name, end)
	}
	for _, r := range recs {
		c.rep.Records++
		if err := c.run.next(start, r.Seq); err != nil {
			c.rep.problemf("%s: %v", name, err)
		}
		if c.firstPast == 0 && r.Seq > c.base {
			c.firstPast = r.Seq
		}
		if r.Seq > c.lastSeq {
			c.lastSeq = r.Seq
		}
	}
}

// skipVanished handles a file pruned between listing and read: in
// online mode that is a checkpoint doing its job, not a problem, but
// the walk no longer saw a consistent image, so finish withholds the
// cross-file coverage verdict.
func (c *checker) skipVanished(name string, readErr error) bool {
	if !c.rep.Online || !os.IsNotExist(readErr) {
		return false
	}
	c.vanished = true
	c.rep.Checked = append(c.rep.Checked, name+" (pruned mid-check)")
	return true
}

// finish applies the cross-file coverage check and returns the report:
// the log suffix past the best snapshot must start at exactly the next
// generation, or the state in between is lost.
func (c *checker) finish() *Report {
	c.rep.LastSeq = c.lastSeq
	c.rep.Partial = c.vanished
	if c.run.seen && c.run.prev > c.base && !c.vanished {
		if c.firstPast != 0 && c.firstPast != c.base+1 {
			c.rep.problemf("generation gap: best snapshot at %d, first log record past it at %d", c.base, c.firstPast)
		}
	}
	return c.rep
}
