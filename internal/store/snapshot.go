package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Snapshots: the job pool at a generation boundary, written and read one
// record at a time so compacting or opening a store costs memory for the
// largest record, not for the table.
//
//	snapMagic | frame(snapHeader) | frame(JobRecord) × Jobs | frame([]CellRecord) × Plans
//
// The frames are the WAL's (length, CRC-32, payload); the records are
// positional, so there is no per-record envelope. Unlike the WAL a snapshot
// is synced before MANIFEST names it, so a frame that does not check out —
// or a count that does not add up — is corruption, not a torn tail, and
// fails the load.
//
// A snapshot written before this format existed is one indented JSON object
// (snapshotFile); it begins with '{', which the magic does not, and loads
// through the old whole-file decoder. Nothing writes that form any more.

const snapMagic = "repro-snapshot-2\n"

// snapHeader opens a snapshot.
type snapHeader struct {
	Gen uint64 `json:"gen"`
	Seq uint64 `json:"seq"`
	// Jobs and Plans count the record frames that follow.
	Jobs  int `json:"jobs"`
	Plans int `json:"plans"`
	// PrevWAL is how many bytes of wal-<gen-1>.log the snapshot folds in, and
	// Retain the retention it pruned with: a live handle that replays its
	// still-open old log that far and prunes alike holds the snapshot's
	// state without reading it (followCompactionLocked).
	PrevWAL  int64            `json:"prev_wal"`
	Retain   int              `json:"retain"`
	Replicas map[string]int64 `json:"replicas,omitempty"`
}

// snapshotFile is the pre-streaming snapshot: the whole state as one object.
type snapshotFile struct {
	Gen      uint64                   `json:"gen"`
	Seq      uint64                   `json:"seq"`
	Jobs     []*JobRecord             `json:"jobs"`
	Replicas map[string]int64         `json:"replicas,omitempty"`
	Cells    map[string][]*CellRecord `json:"cells,omitempty"`
}

// writeSnapshot streams st to w and returns the bytes written.
func writeSnapshot(w io.Writer, st *state, hdr snapHeader) (int64, error) {
	hdr.Seq, hdr.Jobs, hdr.Plans, hdr.Replicas = st.seq, len(st.order), len(st.cells), st.replicas
	bw := bufio.NewWriterSize(w, 64<<10)
	n, err := bw.WriteString(snapMagic)
	if err != nil {
		return 0, err
	}
	size := int64(n)
	// One buffer holds each frame in turn: room for the header, then the
	// record encoded in place behind it.
	var frame bytes.Buffer
	enc := json.NewEncoder(&frame)
	put := func(v any) error {
		frame.Reset()
		frame.Write(make([]byte, frameHeader))
		if err := enc.Encode(v); err != nil {
			return err
		}
		b := frame.Bytes()
		putFrameHeader(b[:frameHeader], b[frameHeader:])
		size += int64(len(b))
		_, err := bw.Write(b)
		return err
	}
	if err := put(hdr); err != nil {
		return 0, err
	}
	for _, id := range st.order {
		if err := put(st.jobs[id]); err != nil {
			return 0, err
		}
	}
	// Plans go out in the order of their jobs, so equal states write equal
	// bytes.
	for _, id := range st.order {
		if cells, ok := st.cells[id]; ok {
			if err := put(cells); err != nil {
				return 0, err
			}
		}
	}
	return size, bw.Flush()
}

// readSnapshotHeader consumes the magic and the header frame.
func readSnapshotHeader(r *bufio.Reader, buf *bytes.Buffer) (snapHeader, error) {
	var hdr snapHeader
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != snapMagic {
		return hdr, errors.New("not a snapshot")
	}
	payload, err := readFrame(r, buf)
	if err != nil {
		return hdr, errors.New("bad header frame")
	}
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return hdr, err
	}
	return hdr, nil
}

// readSnapshot decodes either snapshot form into a state, one record at a
// time for the streamed one, and checks it is a state a replay could have
// produced.
func readSnapshot(r io.Reader) (state, error) {
	st := newState()
	br := bufio.NewReader(r)
	if first, err := br.Peek(1); err == nil && first[0] == '{' {
		data, err := io.ReadAll(br)
		if err != nil {
			return st, err
		}
		var snap snapshotFile
		if err := json.Unmarshal(data, &snap); err != nil {
			return st, err
		}
		st.seq = snap.Seq
		for _, j := range snap.Jobs {
			if j == nil {
				return st, errors.New("null job record")
			}
			st.addJob(j)
		}
		for h, exp := range snap.Replicas {
			st.replicas[h] = exp
		}
		for job, cells := range snap.Cells {
			st.setPlan(job, cells)
		}
		return st, st.check()
	}

	var buf bytes.Buffer
	hdr, err := readSnapshotHeader(br, &buf)
	if err != nil {
		return st, err
	}
	if hdr.Jobs < 0 || hdr.Plans < 0 {
		return st, errors.New("negative record count")
	}
	st.seq = hdr.Seq
	for h, exp := range hdr.Replicas {
		st.replicas[h] = exp
	}
	for i := 0; i < hdr.Jobs; i++ {
		payload, err := readFrame(br, &buf)
		if err != nil {
			return st, fmt.Errorf("job record %d of %d: %w", i, hdr.Jobs, err)
		}
		j := new(JobRecord)
		if err := json.Unmarshal(payload, j); err != nil {
			return st, err
		}
		st.addJob(j)
	}
	for i := 0; i < hdr.Plans; i++ {
		payload, err := readFrame(br, &buf)
		if err != nil {
			return st, fmt.Errorf("cell plan %d of %d: %w", i, hdr.Plans, err)
		}
		var cells []*CellRecord
		if err := json.Unmarshal(payload, &cells); err != nil {
			return st, err
		}
		if len(cells) == 0 || cells[0] == nil {
			return st, errors.New("empty cell plan")
		}
		st.setPlan(cells[0].Job, cells)
	}
	if _, err := readFrame(br, &buf); err != io.EOF {
		return st, errors.New("data after the last record")
	}
	return st, st.check()
}

// setPlan installs a job's cell plan and counts what is left of it.
func (st *state) setPlan(job string, cells []*CellRecord) {
	left := 0
	for _, c := range cells {
		if c != nil && !terminal(c.State) {
			left++
		}
	}
	st.cells[job] = cells
	st.cellsLeft[job] = left
}

// check reports whether a decoded state is one replay could have produced:
// distinct jobs, and plans only for live jobs, each cell in its place. It
// counts the queued jobs, which no snapshot records.
func (st *state) check() error {
	if len(st.jobs) != len(st.order) {
		return errors.New("duplicate job id")
	}
	st.queued = 0
	for _, j := range st.jobs {
		if j.State == StateQueued {
			st.queued++
		}
	}
	for job, cells := range st.cells {
		if j, ok := st.jobs[job]; !ok || terminal(j.State) {
			return fmt.Errorf("cell plan for %q, which is not a live job", job)
		}
		if len(cells) == 0 {
			return fmt.Errorf("empty cell plan for %q", job)
		}
		for i, c := range cells {
			if c == nil || c.Job != job || c.Index != i {
				return fmt.Errorf("cell %d of %q is out of place", i, job)
			}
		}
	}
	return nil
}

// loadGenerationLocked (re)loads the snapshot of gen and opens its WAL.
func (s *Store) loadGenerationLocked(gen uint64) error {
	st := newState()
	var snapBytes int64
	f, err := os.Open(s.snapshotPath(gen))
	switch {
	case err == nil:
		st, err = readSnapshot(f)
		if fi, serr := f.Stat(); serr == nil {
			snapBytes = fi.Size()
		}
		f.Close()
		if err != nil {
			return fmt.Errorf("store: snapshot-%d: %w", gen, err)
		}
	case !os.IsNotExist(err):
		return fmt.Errorf("store: %w", err)
	}
	wal, err := os.OpenFile(s.walPath(gen), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.setWALLocked(wal)
	s.st = st
	s.gen = gen
	s.snapBytes.Store(snapBytes)
	return nil
}

// followCompactionLocked takes a live handle across another handle's
// compaction without reading the table back. The snapshot of gen is, by
// construction, the state at PrevWAL bytes of the previous log, pruned with
// Retain; this handle still has that log open (unlinked, but readable), so it
// replays what it had not seen, prunes alike and moves to the new log. Any
// doubt — a skipped generation, an old-form snapshot, counts that differ —
// reports false and the caller loads the snapshot in full.
func (s *Store) followCompactionLocked(gen uint64) bool {
	if s.wal == nil || gen != s.gen+1 {
		return false
	}
	f, err := os.Open(s.snapshotPath(gen))
	if err != nil {
		return false
	}
	defer f.Close()
	var buf bytes.Buffer
	hdr, err := readSnapshotHeader(bufio.NewReader(f), &buf)
	if err != nil || hdr.Gen != gen || hdr.Retain < 1 {
		return false
	}
	if err := s.replayTailLocked(); err != nil || s.walOff != hdr.PrevWAL {
		return false
	}
	s.pruneLocked(hdr.Retain)
	if s.st.seq != hdr.Seq || len(s.st.order) != hdr.Jobs || len(s.st.cells) != hdr.Plans {
		return false
	}
	wal, err := os.OpenFile(s.walPath(gen), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return false
	}
	s.setWALLocked(wal)
	s.gen = gen
	if fi, err := f.Stat(); err == nil {
		s.snapBytes.Store(fi.Size())
	}
	return true
}

// pruneLocked drops finished jobs beyond the retention window, oldest first
// — so neither the table nor, under it, the WAL and snapshots can grow
// without bound. A finished job holds no cell plan to drop: its terminal
// record took the plan with it (state.endJob).
func (s *Store) pruneLocked(retain int) {
	finished := 0
	for _, id := range s.st.order {
		if terminal(s.st.jobs[id].State) {
			finished++
		}
	}
	keep := s.st.order[:0]
	for _, id := range s.st.order {
		j := s.st.jobs[id]
		if terminal(j.State) && finished > retain {
			finished--
			delete(s.st.jobs, id)
			continue
		}
		keep = append(keep, id)
	}
	s.st.order = keep
}

// writeFileSynced writes a file via a temp file, an fsync and a rename, so
// the name never refers to partial contents, before or after a power loss.
func writeFileSynced(path string, write func(f *os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// syncDir makes the directory's entries — renames, creations — durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// compactLocked writes the current state (with done jobs beyond retain
// pruned) as the next generation's snapshot and restarts the WAL. Callers
// hold the flock with a refreshed state.
func (s *Store) compactLocked(retain int) error {
	if retain < 1 {
		retain = 1
	}
	s.pruneLocked(retain)
	if s.dir == "" {
		return nil
	}

	gen := s.gen + 1
	var size int64
	err := writeFileSynced(s.snapshotPath(gen), func(f *os.File) (err error) {
		size, err = writeSnapshot(f, &s.st, snapHeader{Gen: gen, PrevWAL: s.walOff, Retain: retain})
		return err
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// A fresh, empty WAL for the new generation; created before the
	// manifest flips so no reader ever sees a generation without its log.
	wal, err := os.OpenFile(s.walPath(gen), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err = s.writeManifest(gen); err == nil {
		// The snapshot, the new log and the flipped manifest are all names
		// in this directory; only now may the old generation go.
		err = syncDir(s.dir)
	}
	if err != nil {
		wal.Close()
		return fmt.Errorf("store: %w", err)
	}
	oldGen := s.gen
	s.setWALLocked(wal)
	s.gen = gen
	s.snapBytes.Store(size)
	os.Remove(s.walPath(oldGen))
	os.Remove(s.snapshotPath(oldGen))
	compactions.Inc()
	return nil
}
