package server

import "unikv"

// writer is one connection's entry in the commit queue. A connection has
// one commit in flight at a time, so the entry — wake channel included —
// is reused for every one.
type writer struct {
	batch *unikv.Batch
	err   error
	done  bool          // set by a leader that committed batch on this writer's behalf
	wake  chan struct{} // buffered(1): a leader's result, or promotion to leader
}

// commit applies w.batch and returns its result: group commit in the style
// of LevelDB's writer queue. Writers queue up; the one at the head leads:
// it applies its own batch and every batch queued behind it (up to
// MaxGroupOps operations) with one DB.Apply on its own goroutine, hands the
// followers the result, and wakes the new head to lead the next group.
// While an Apply (and its WAL fsync under SyncWrites) is in flight the
// queue fills behind it, so N concurrent writers converge on far fewer
// than N commits; a lone writer finds the queue empty and pays no hand-off.
func (s *Server) commit(w *writer) error {
	s.commitMu.Lock()
	s.queue = append(s.queue, w)
	if s.queue[0] != w {
		s.commitMu.Unlock()
		<-w.wake
		if w.done {
			w.done = false
			return w.err
		}
		s.commitMu.Lock() // promoted: still queued, now at the head
	}
	n, ops := 1, w.batch.Len()
	for n < len(s.queue) && ops < s.opts.MaxGroupOps {
		ops += s.queue[n].batch.Len()
		n++
	}
	// Later writers append behind group; only this leader, at the end,
	// shifts the queue, so the slice stays valid off the lock.
	group := s.queue[:n:n]
	s.commitMu.Unlock()

	s.applyGroup(group)

	for _, f := range group[1:] {
		f.done = true
		f.wake <- struct{}{}
	}
	s.commitMu.Lock()
	s.queue = append(s.queue[:0], s.queue[n:]...)
	if len(s.queue) > 0 {
		s.queue[0].wake <- struct{}{} // never blocks: a queued writer is woken once
	}
	s.commitMu.Unlock()
	return w.err
}

// applyGroup commits the group with one DB.Apply and gives every member the
// result. If a group of several fails, each member's batch is applied again
// alone, in queue order, for its own result: one connection's oversized key
// or quarantined partition must not fail the writes that shared its commit.
// (Re-applying what already landed is idempotent; a whole-DB error repeats.)
func (s *Server) applyGroup(group []*writer) {
	if len(group) == 1 {
		group[0].err = s.apply(group[0].batch)
		return
	}
	s.merged.Reset()
	for _, m := range group {
		s.merged.Append(m.batch)
	}
	err := s.apply(s.merged)
	for _, m := range group {
		m.err = err
		if err != nil {
			m.err = s.apply(m.batch)
		}
	}
}

// apply is the server's one call into DB.Apply, counted. Leaders run one
// at a time, so the maxGroup update has a single writer.
func (s *Server) apply(b *unikv.Batch) error {
	err := s.db.Apply(b)
	n := int64(b.Len())
	s.groupCommits.Add(1)
	s.groupedOps.Add(n)
	if n > s.maxGroup.Load() {
		s.maxGroup.Store(n)
	}
	return err
}
