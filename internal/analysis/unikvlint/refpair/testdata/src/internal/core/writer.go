// Fixture: a job's writers — a table writer and a dedicated value log — must
// reach finish or abort on every error path, or have their abort deferred.
// Writers are classified by type name, so local stand-ins behave like the
// real ones.
package core

import "errors"

type table struct{}

type file struct{}

func (f *file) Close() error { return nil }

type tableWriter struct{ f *file }

func (p *partition) newTableWriter() *tableWriter { return &tableWriter{f: &file{}} }

func (w *tableWriter) add(k string) error {
	if k == "" {
		return errors.New("empty key")
	}
	return nil
}

// finish closes the file on failure too, so it discharges the writer on
// every path.
func (w *tableWriter) finish() ([]*table, error) {
	w.abort()
	return nil, nil
}

func (w *tableWriter) abort() { w.f.Close() }

type DedicatedLog struct{ f *file }

func (d *DedicatedLog) Append(v string) error { return nil }

func (d *DedicatedLog) Finish() (bool, error) { return true, d.f.Close() }

func (d *DedicatedLog) Abort() { d.f.Close() }

type manager struct{}

func (m *manager) NewDedicatedLog() (*DedicatedLog, error) { return &DedicatedLog{f: &file{}}, nil }

// separator stages records in front of the writer, like the merge's.
type separator struct{ w *tableWriter }

func (s *separator) add(k string) error { return s.w.add(k) }

func (s *separator) flush() error { return nil }

// buildMergeLeaky is the merge build before its writer had an abort: a
// failed record, or a failed flush of the staged values, returned with the
// table half-written and its file open.
func (p *partition) buildMergeLeaky(keys []string) ([]*table, error) {
	w := p.newTableWriter()
	sep := &separator{w: w}
	for _, k := range keys {
		if err := sep.add(k); err != nil {
			return nil, err // want `error return leaves writer w created at .* open`
		}
	}
	if err := sep.flush(); err != nil {
		return nil, err // want `error return leaves writer w created at .* open`
	}
	tables, err := w.finish()
	if err != nil {
		return nil, err // finish closed it
	}
	return tables, nil
}

// A deferred abort covers every path.
func (p *partition) buildMergeDeferred(keys []string) ([]*table, error) {
	w := p.newTableWriter()
	defer w.abort()
	for _, k := range keys {
		if err := w.add(k); err != nil {
			return nil, err
		}
	}
	return w.finish()
}

// Aborting on the path itself is clean.
func (p *partition) buildAborted(k string) error {
	w := p.newTableWriter()
	if err := w.add(k); err != nil {
		w.abort()
		return err
	}
	_, err := w.finish()
	return err
}

// A log's constructor failure acquired nothing; a later failure must close
// it. Finishing one writer does not discharge another.
func (p *partition) gcLeaky(m *manager, keys []string) error {
	d, err := m.NewDedicatedLog()
	if err != nil {
		return err
	}
	w := p.newTableWriter()
	defer w.abort()
	for _, k := range keys {
		if err := d.Append(k); err != nil {
			return err // want `error return leaves writer d created at .* open`
		}
	}
	if _, err := w.finish(); err != nil {
		return err // want `error return leaves writer d created at .* open`
	}
	_, err = d.Finish()
	return err
}

func (p *partition) gcDeferred(m *manager, keys []string) error {
	d, err := m.NewDedicatedLog()
	if err != nil {
		return err
	}
	defer d.Abort()
	for _, k := range keys {
		if err := d.Append(k); err != nil {
			return err
		}
	}
	if _, err := d.Finish(); err != nil {
		return err
	}
	return nil
}
