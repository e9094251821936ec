package core

import (
	"errors"
	"fmt"
	"time"

	"unikv/internal/manifest"
)

// Partition-scoped quarantine. Corruption found while the DB is running —
// by the background scrub, a background job reading a bad block, or a
// foreground read — is contained to the partitions that actually own the
// corrupt bytes: writes to those partitions fail with an error matching
// ErrPartitionQuarantined, their maintenance jobs stop (rewriting corrupt
// inputs would launder the damage into fresh files), and every other
// partition keeps serving reads AND writes. Reads on a quarantined
// partition are still attempted: keys outside the corrupt block remain
// readable, which is strictly better than refusing everything.
//
// Blast-radius rules:
//   - a corrupt table quarantines its owning partition only;
//   - a corrupt shared value log quarantines exactly the partitions
//     holding live pointers into it (their current versions' log sets —
//     the bookkeeping GC uses to decide when a log is collectable);
//   - manifest/WAL-level damage still degrades the whole DB (setDegraded):
//     with the metadata spine suspect there is no trustworthy partition
//     boundary to scope a quarantine to.
//
// Quarantine is sticky for the life of the handle; `unikv-ctl repair`
// (offline) salvages the directory and a reopen starts clean.

// quarantinePartition marks p quarantined (first corruption wins; later
// findings on the same partition are counted but do not replace the
// cause). It returns true when this call performed the transition.
func (db *DB) quarantinePartition(p *partition, cause string, err error) bool {
	q := &QuarantinedError{
		Partition: p.id,
		Cause:     cause,
		Since:     time.Now(),
		Err:       err,
	}
	if !p.quarantine.CompareAndSwap(nil, q) {
		return false
	}
	db.stats.PartitionsQuarantined.Add(1)
	// A writer stalled on this partition's throttle must observe the
	// quarantine instead of waiting for maintenance that will never run.
	p.wakeStalled()
	return true
}

// quarantineLog quarantines every partition holding live pointers into
// value log n, returning the IDs transitioned by this call. The owner set
// is each partition's current version's log set — the bookkeeping that
// keeps the log alive.
func (db *DB) quarantineLog(n uint32, cause string, err error) []uint32 {
	var hit []uint32
	for _, p := range db.partitions() {
		if p.cur.Load().hasLog(n) && db.quarantinePartition(p, cause, err) {
			hit = append(hit, p.id)
		}
	}
	return hit
}

// quarantineErr returns the error writes to p must surface, or nil.
func (p *partition) quarantineErr() error {
	if q := p.quarantine.Load(); q != nil {
		return q
	}
	return nil
}

// quarantinedCount counts currently quarantined partitions (the /healthz
// and StatsSnapshot gauge).
func (db *DB) quarantinedCount() int {
	n := 0
	for _, p := range db.partitions() {
		if p.quarantine.Load() != nil {
			n++
		}
	}
	return n
}

// noteReadCorruption routes a foreground read failure into quarantine
// when it classifies as corruption. Reads keep returning the original
// error; this only flips the containment state so subsequent writes to
// the damaged partition stop accepting data the engine may not be able
// to maintain.
func (db *DB) noteReadCorruption(p *partition, err error) {
	if err == nil || Classify(err) != ClassCorruption {
		return
	}
	db.quarantinePartition(p, "foreground read", err)
}

// jobFailed is the scheduler's terminal-failure escalation point.
// Corruption inside one partition's files quarantines that partition;
// manifest-level corruption and every non-corruption terminal failure
// (retries exhausted, fatal) still degrade the whole DB — the former
// because the metadata spine is suspect, the latter because the engine
// can no longer guarantee forward progress anywhere.
func (db *DB) jobFailed(t task, err error) {
	if err == nil {
		return
	}
	if Classify(err) == ClassCorruption && !errors.Is(err, manifest.ErrCorrupt) {
		// The cause names WHAT found the corruption; the wrapped err carries
		// where — Error() prints both, so embedding err here would duplicate.
		cause := fmt.Sprintf("%s job", t.kind)
		var lce logCorruptionError
		if errors.As(err, &lce) {
			// Scrub names the corrupt log explicitly: fan the quarantine out
			// to every partition holding pointers into it.
			db.quarantineLog(lce.log, cause, err)
			return
		}
		db.quarantinePartition(t.p, cause, err)
		return
	}
	db.setDegraded(t, err)
}

// logCorruptionError tags a corruption error with the value log it was
// found in, so the quarantine fan-out (quarantineLog) can compute the
// exact blast radius. It is produced by the scrub's log pass.
type logCorruptionError struct {
	log uint32
	err error
}

func (e logCorruptionError) Error() string {
	return fmt.Sprintf("value log %d: %v", e.log, e.err)
}

func (e logCorruptionError) Unwrap() error { return e.err }
