// Fixture: errors constructed on the background-job path (reachable from
// runWithRetry) must carry their class — Classify defaults unknown errors
// to transient, and a transient classification means the scheduler RETRIES
// the job, which for a corruption error re-reads the same wrong bytes.
package core

import (
	"errors"
	"fmt"
)

type ErrorClass uint8

const (
	ClassTransient ErrorClass = iota + 1
	ClassCorruption
)

type ClassifiedError struct {
	Class ErrorClass
	Err   error
}

func (e *ClassifiedError) Error() string { return e.Err.Error() }
func (e *ClassifiedError) Unwrap() error { return e.Err }

func WithClass(class ErrorClass, err error) error {
	if err == nil {
		return nil
	}
	return &ClassifiedError{Class: class, Err: err}
}

func classified(err error) error { return WithClass(Classify(err), err) }

var errSegmentCorrupt = errors.New("segment corrupt") // sentinel: outside any function, never flagged

func Classify(err error) ErrorClass {
	if errors.Is(err, errSegmentCorrupt) {
		return ClassCorruption
	}
	return ClassTransient
}

type sched struct {
	retries int
}

func (s *sched) runWithRetry() error {
	for attempt := 0; ; attempt++ {
		err := s.run()
		if err == nil {
			return nil
		}
		if Classify(err) != ClassTransient || attempt >= s.retries {
			return err
		}
	}
}

// run → gc → rewriteLog: the construction sites live three call
// edges below the retry loop; Reachable makes the depth irrelevant.
func (s *sched) run() error {
	return s.gc()
}

func (s *sched) gc() error {
	if bad() {
		return s.flakyProbe()
	}
	return s.rewriteLog(7)
}

func bad() bool { return false }

func (s *sched) rewriteLog(n int) error {
	if bad() {
		return errors.New("checksum mismatch") // want `unclassified errors\.New on the background-job path`
	}
	if bad() {
		return fmt.Errorf("segment %d torn", n) // want `unclassified fmt\.Errorf without %w on the background-job path`
	}
	if bad() {
		// %w keeps the classified sentinel visible to errors.Is: clean.
		return fmt.Errorf("rewrite segment %d: %w", n, errSegmentCorrupt)
	}
	if bad() {
		// Explicit class at the construction site: clean.
		return WithClass(ClassCorruption, errors.New("tail truncated"))
	}
	if bad() {
		// Derived class stamped on: clean.
		return classified(errors.New("mystery"))
	}
	return nil
}

// Not reachable from runWithRetry: foreground construction is the caller's
// problem (the write path classifies at its own boundary).
func (s *sched) foregroundCheck() error {
	return errors.New("misuse: nil key")
}

// The escape hatch, for errors that are transient by construction.
func (s *sched) flakyProbe() error {
	//unikv:allow(errclass) probe errors are transient by definition
	return errors.New("probe timeout")
}
