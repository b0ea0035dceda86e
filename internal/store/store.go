// Package store gives the service a durable, multi-process backbone: a
// file-backed store that N reprosrv replicas sharing one directory use to
// persist fitted performance models (the registry's fit-once economics made
// restart-proof) and to coordinate a shared job pool through a checksummed
// write-ahead log with lease-based claiming.
//
// Layout of a store directory:
//
//	LOCK                 flock target serialising every read-modify-write
//	MANIFEST             {"gen":N} — the live snapshot/WAL generation
//	snapshot-<gen>.json  job-pool state at the generation boundary, one
//	                     checksummed frame per record (snapshot.go)
//	wal-<gen>.log        checksummed frames appended since the snapshot
//	models/<env>@<seed>.json  one durable model-cache entry per fit
//
// Every job-pool operation runs under an exclusive flock: the caller first
// replays any WAL records other replicas appended since its last look, then
// appends its own records before unlocking. Compaction bumps the generation:
// the surviving jobs are written to a fresh snapshot, the WAL restarts empty,
// and other replicas detect the generation change through MANIFEST and
// follow. Replicas with nothing to do do not poll for any of this on a timer;
// they block in WaitChange (wait.go).
//
// Durability contract. A call returns only after an fsync of the log when it
// wrote something a client was promised or that cannot be rebuilt: submit,
// job claim, job renew, job terminal state, job release, replica heartbeat
// and cell plan. The cell-level frames — cellclaim, cellrenew, celldone,
// cellrelease — are written without one: cells are deterministic, so a
// re-run reproduces their frames byte for byte, and the next synced frame on
// the same file carries them to the device anyway. After power loss the log
// is therefore a checksummed prefix that contains every frame up to the last
// synced one; unsynced cell frames past it may be missing, which is
// indistinguishable from their holder having crashed — the cells are
// reclaimed on lease expiry and re-run to byte-identical frames, first write
// wins. A process crash (kill -9) loses nothing: the page cache survives the
// process. Snapshots and MANIFEST are synced, and the directory after them,
// before a compaction removes the generation they replace.
//
// The lease discipline translates the classic SQL IP-pool allocator
// (SELECT ... FOR UPDATE SKIP LOCKED with an expiry_time and sticky
// reassignment to the previous holder) into Go: replicas claim queued work —
// a job, or one cell of a sharded job — by writing a lease record (holder,
// expiry), renew it while running, and any replica may reclaim work whose
// lease expired, with claim ordering that hands a replica its own previous
// work first. Jobs and cells share that lease, written once (lease.go).
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Store telemetry: lease traffic, WAL growth and compactions, shared by
// every Store instance in the process.
var (
	leaseClaims = obs.Default.Counter("repro_store_lease_claims_total",
		"Jobs claimed from the shared pool by this process.")
	leaseRenewals = obs.Default.Counter("repro_store_lease_renewals_total",
		"Lease renewals written by this process.")
	leaseReclaims = obs.Default.Counter("repro_store_lease_reclaims_total",
		"Claims that took over another holder's expired lease.")
	walBytes = obs.Default.Counter("repro_store_wal_bytes_total",
		"Bytes appended to the job-pool WAL by this process.")
	compactions = obs.Default.Counter("repro_store_compactions_total",
		"Snapshot compactions run by this process.")
	cellClaims = obs.Default.Counter("repro_store_cell_claims_total",
		"Cell work-units claimed from sharded jobs by this process.")
	cellReclaims = obs.Default.Counter("repro_store_cell_reclaims_total",
		"Cell claims that took over another holder's expired lease.")
	poisonings = obs.Default.Counter("repro_store_poisoned_total",
		"Jobs and cells this process failed instead of taking them over past the restart cap.")
	fsyncSeconds = obs.Default.Histogram("repro_store_fsync_seconds",
		"WAL fsync latency per batched append.", obs.DefBuckets)
)

// framesTotal counts WAL frames appended by this process, by record kind.
// The set of kinds is closed, so the label variants are registered once.
var framesTotal = func() map[string]*obs.Counter {
	kinds := []string{
		recSubmit, recClaim, recRenew, recState, recRelease, recReplica,
		recCellPlan, recCellClaim, recCellRenew, recCellDone, recCellRelease,
	}
	m := make(map[string]*obs.Counter, len(kinds))
	for _, k := range kinds {
		m[k] = obs.Default.Counter("repro_store_frames_total",
			"WAL frames appended by this process, by record kind.", obs.L("kind", k))
	}
	return m
}()

// Options configures a Store.
type Options struct {
	// Now is the store's clock; time.Now when nil. Tests inject simulated
	// clocks to drive lease expiry deterministically.
	Now func() time.Time
}

// Store is one process's handle on a shared store directory. It is safe for
// concurrent use within the process, and any number of processes (or
// handles) may share the directory: cross-handle mutual exclusion is by
// flock on the LOCK file.
//
// A handle from NewMemory has no directory: the same state machine with
// nothing under it. Its records are numbered, stamped and applied but never
// encoded, so there is no LOCK, log, snapshot or prober, and no other handle
// can ever see its pool.
type Store struct {
	dir string // "" for a handle without a directory
	now func() time.Time

	mu    sync.Mutex
	lockf *os.File
	// manifest is the MANIFEST this handle last read, kept open, and
	// manifestGen the generation it names; see liveGenerationLocked.
	manifest    *os.File
	manifestGen uint64
	wal         *os.File
	walOff      int64
	gen         uint64
	st          state
	// syncedOff is how much of the live WAL this handle has fsynced: what a
	// power loss is guaranteed to leave behind (the power-loss test's model).
	syncedOff int64
	// woke notes that a record applied under the current lock made something
	// claimable or terminal; withLock turns it into a broadcast.
	woke bool

	// The lock-free side, read by the prober and by CompactPast: the open
	// WAL's descriptor (-1 when there is none), the WAL size this handle has
	// accounted for — replayed, or written itself — and the size of the live
	// generation's snapshot.
	walFd     atomic.Int64
	seen      atomic.Int64
	snapBytes atomic.Int64

	waiters waitList
}

// state is the replayed in-memory view of the job pool.
type state struct {
	seq   uint64
	jobs  map[string]*JobRecord
	order []string
	// live is order without the terminal jobs: what a claim has to look at,
	// however many finished jobs retention keeps.
	live []string
	// queued counts the jobs in state queued: what a bounded submission and
	// the queue-depth gauge read, kept by state.move and recomputed by
	// state.check.
	queued   int
	replicas map[string]int64 // holder -> registration expiry, unix nanos
	cells    map[string][]*CellRecord
	// cellsLeft counts each plan's cells that are not yet terminal, so the
	// record that finishes a plan is recognisable without a scan.
	cellsLeft map[string]int
}

func newState() state {
	return state{
		jobs:      make(map[string]*JobRecord),
		replicas:  make(map[string]int64),
		cells:     make(map[string][]*CellRecord),
		cellsLeft: make(map[string]int),
	}
}

// addJob enters a job at the end of the submission order.
func (st *state) addJob(j *JobRecord) {
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
	if !terminal(j.State) {
		st.live = append(st.live, j.ID)
	}
}

// endJob takes a job that turned terminal out of what claims look at. Its
// cells are dead weight by then — the coordinator gathered every result
// before writing the terminal record — so they go too.
func (st *state) endJob(id string) {
	for i, l := range st.live {
		if l == id {
			st.live = append(st.live[:i], st.live[i+1:]...)
			break
		}
	}
	delete(st.cells, id)
	delete(st.cellsLeft, id)
}

// NewMemory returns a handle without a directory: a job pool that lives and
// dies with the handle. The model cache (models.go) needs a directory and is
// not available on it.
func NewMemory(opts Options) *Store {
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	s := &Store{now: now, st: newState()}
	s.walFd.Store(-1)
	s.waiters.ch = make(chan struct{})
	return s
}

// Open opens (creating if needed) a store directory.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "models"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lockf, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := NewMemory(opts)
	s.dir, s.lockf = dir, lockf
	if err := s.withLock(func() error { return nil }); err != nil {
		lockf.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the handle. It does not compact or otherwise mutate the
// shared state.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setWALLocked(nil)
	if s.manifest != nil {
		s.manifest.Close()
		s.manifest = nil
	}
	if s.lockf != nil {
		s.lockf.Close()
		s.lockf = nil
	}
	return nil
}

// Dir returns the store directory, "" for a handle without one.
func (s *Store) Dir() string { return s.dir }

// withLock runs fn holding both the in-process mutex and the cross-process
// flock, with the in-memory state refreshed to the latest shared records.
// Whatever the refresh or fn applied that makes work claimable or a job
// terminal is announced to WaitChange callers once the locks are released.
func (s *Store) withLock(fn func() error) error {
	s.mu.Lock()
	err := s.flocked(fn)
	woke := s.woke
	s.woke = false
	s.mu.Unlock()
	if woke {
		s.waiters.broadcast()
	}
	return err
}

// locked is withLock for a call that hands back what it found, and whether
// it found anything.
func locked[T any](s *Store, fn func() (T, bool, error)) (out T, ok bool, err error) {
	err = s.withLock(func() (err error) {
		out, ok, err = fn()
		return err
	})
	return out, ok, err
}

// flocked is withLock's cross-process half. Callers hold s.mu.
func (s *Store) flocked(fn func() error) error {
	if s.dir == "" {
		return fn() // nobody to exclude, nothing to refresh from
	}
	if s.lockf == nil {
		return fmt.Errorf("store: closed")
	}
	if err := syscall.Flock(int(s.lockf.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("store: lock: %w", err)
	}
	defer syscall.Flock(int(s.lockf.Fd()), syscall.LOCK_UN)
	if err := s.refreshLocked(); err != nil {
		return err
	}
	return fn()
}

// manifest is the tiny generation pointer other replicas poll.
type manifest struct {
	Gen uint64 `json:"gen"`
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "MANIFEST") }
func (s *Store) walPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%d.log", gen))
}
func (s *Store) snapshotPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snapshot-%d.json", gen))
}

// liveGenerationLocked returns the generation MANIFEST names. MANIFEST is
// only ever replaced by rename, which unlinks the file a handle has open; so
// one fstat of that descriptor says whether the answer it read still stands,
// and the file is read again only after a compaction. Callers hold the flock.
func (s *Store) liveGenerationLocked() (uint64, error) {
	if s.manifest != nil {
		if _, nlink, err := fileStat(int(s.manifest.Fd())); err == nil && nlink > 0 {
			return s.manifestGen, nil
		}
		s.manifest.Close()
		s.manifest = nil
	}
	f, err := os.Open(s.manifestPath())
	if os.IsNotExist(err) {
		// A store nobody has compacted names generation 0 explicitly, so
		// that there is a file to hold open.
		if err = s.writeManifest(0); err == nil {
			f, err = os.Open(s.manifestPath())
		}
	}
	if err != nil {
		return 0, fmt.Errorf("store: manifest: %w", err)
	}
	var m manifest
	if err := json.NewDecoder(f).Decode(&m); err != nil {
		f.Close()
		return 0, fmt.Errorf("store: manifest: %w", err)
	}
	s.manifest, s.manifestGen = f, m.Gen
	return m.Gen, nil
}

// writeManifest points MANIFEST at gen, durably.
func (s *Store) writeManifest(gen uint64) error {
	data, err := json.Marshal(manifest{Gen: gen})
	if err != nil {
		return err
	}
	return writeFileSynced(s.manifestPath(), func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// refreshLocked brings the in-memory state up to date with the shared
// files. Callers hold the flock.
func (s *Store) refreshLocked() error {
	gen, err := s.liveGenerationLocked()
	if err != nil {
		return err
	}
	if s.wal == nil || gen != s.gen {
		if !s.followCompactionLocked(gen) {
			if err := s.loadGenerationLocked(gen); err != nil {
				return err
			}
		}
		// A snapshot can fold in records this handle never replayed one by
		// one, so whoever waits must look again.
		s.woke = true
	}
	return s.replayTailLocked()
}

// setWALLocked swaps the open log (nil closes it), keeping the prober's view
// of the descriptor and of the accounted-for size in step.
func (s *Store) setWALLocked(wal *os.File) {
	if s.wal != nil {
		s.walFd.Store(-1)
		s.wal.Close()
	}
	s.wal = wal
	s.walOff = 0
	s.syncedOff = 0
	s.seen.Store(0)
	if wal != nil {
		s.walFd.Store(int64(wal.Fd()))
	}
}

// fileStat is fstat without the os.FileInfo: the size and link count of an
// open descriptor, allocation-free. The refresh and the prober both use it.
func fileStat(fd int) (size int64, nlink uint64, err error) {
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return 0, 0, err
	}
	return st.Size, uint64(st.Nlink), nil
}

// replayTailLocked applies WAL records appended since the last look.
func (s *Store) replayTailLocked() error {
	size, _, err := fileStat(int(s.wal.Fd()))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.seen.Store(size)
	if size <= s.walOff {
		return nil
	}
	buf := make([]byte, size-s.walOff)
	if _, err := s.wal.ReadAt(buf, s.walOff); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	consumed, err := replayFrames(buf, func(payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A checksummed but undecodable record: replay stops here, as
			// after a torn tail; the next append heals by truncation.
			return errStopReplay
		}
		s.applyLocked(&rec)
		return nil
	})
	if err != nil && err != errStopReplay {
		return err
	}
	s.walOff += int64(consumed)
	return nil
}

// errStopReplay aborts frame replay without failing the refresh.
var errStopReplay = fmt.Errorf("store: stop replay")

// Whether an append must be on the device before the call returns; see the
// durability contract in the package comment.
const (
	synced   = true
	unsynced = false
)

// appendLocked appends a single record; see appendBatchLocked.
func (s *Store) appendLocked(rec *record, durable bool) error {
	return s.appendBatchLocked([]*record{rec}, durable)
}

// appendBatchLocked assigns sequence numbers to recs, appends them to the
// WAL as one contiguous write (healing any torn tail first), syncs when the
// batch is one a caller was promised, and applies the records in order.
// Callers hold the flock with a refreshed state.
func (s *Store) appendBatchLocked(recs []*record, durable bool) error {
	if len(recs) == 0 {
		return nil
	}
	for _, rec := range recs {
		s.st.seq++
		rec.Seq = s.st.seq
		rec.T = s.now().UnixNano()
	}
	if s.dir != "" {
		if err := s.logLocked(recs, durable); err != nil {
			return err
		}
	}
	for _, rec := range recs {
		s.applyLocked(rec)
	}
	return nil
}

// logLocked is appendBatchLocked's write to the log.
func (s *Store) logLocked(recs []*record, durable bool) error {
	// Any bytes past walOff failed replay — a torn tail from a crashed
	// writer. Truncate before appending so the log stays parseable.
	if s.seen.Load() > s.walOff {
		if err := s.wal.Truncate(s.walOff); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	var buf []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		buf = appendFrame(buf, payload)
	}
	end := s.walOff + int64(len(buf))
	// Accounted for before it is written, so the prober never takes this
	// handle's own append for another's.
	s.seen.Store(end)
	if _, err := s.wal.WriteAt(buf, s.walOff); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if durable {
		start := time.Now()
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		fsyncSeconds.Observe(time.Since(start).Seconds())
		s.syncedOff = end
	}
	s.walOff = end
	walBytes.Add(uint64(len(buf)))
	for _, rec := range recs {
		if c, ok := framesTotal[rec.Type]; ok {
			c.Inc()
		}
	}
	return nil
}
