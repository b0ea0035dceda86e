package store

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Waiting for work. Whoever has nothing to do — an idle claim loop, a
// coordinator whose remaining cells other replicas hold, a status long-poll —
// takes the handle's Stamp, looks (a claim attempt, a status read) and, having
// found nothing, blocks in WaitChange until the stamp moves. It moves when a
// record that makes something claimable or terminal is applied to this
// handle's view: a submission, a cell plan, a job or cell release, a job's
// terminal state, the cell result that completes (or fails) a plan. Claims,
// renewals and the other cell results change nothing a waiter could act on
// and wake nobody, whichever handle wrote them.
//
// Records written through this handle are applied — and announced — before
// the writing call returns. Records other handles and processes wrote are
// noticed by the prober: while, and only while, somebody waits, one goroutine
// per handle fstats the open log every probeEvery, and when the log has
// outgrown what this handle accounted for (or was unlinked by a compaction)
// replays the new frames under the store lock, which announces whatever they
// carry. A probe is one syscall on an already-open descriptor: no flock, no
// allocation, no mutex an appender's fsync could be holding.
//
// What no frame announces is the passage of time: a lease that expires makes
// its job or cell claimable without a byte being written. That, and a crash
// between a compaction's manifest flip and the removal of the old log, is
// what WaitChange's fallback deadline is for.

// probeEvery is the prober's cadence: the bound on how late a waiter learns
// of another handle's append.
const probeEvery = time.Millisecond

// ChangeStamp is a point in the sequence of wake-worthy changes a handle has
// seen; it only ever compares equal or not.
type ChangeStamp uint64

// waitList is the in-process side of WaitChange.
type waitList struct {
	seq atomic.Uint64

	mu      sync.Mutex
	ch      chan struct{} // closed, and replaced, by every broadcast that has waiters
	n       int           // goroutines blocked in WaitChange
	probing bool          // a prober goroutine is running
}

// broadcast moves the stamp and releases every current waiter.
func (w *waitList) broadcast() {
	w.mu.Lock()
	w.seq.Add(1)
	if w.n > 0 {
		close(w.ch)
		w.ch = make(chan struct{})
	}
	w.mu.Unlock()
}

// Stamp returns the handle's current change stamp. Take it before looking for
// work: WaitChange then cannot miss a change that lands between the look and
// the wait.
func (s *Store) Stamp() ChangeStamp { return ChangeStamp(s.waiters.seq.Load()) }

// WaitChange blocks until the handle's stamp differs from since, ctx is done
// or fallback has passed, whichever is first. After the fallback the caller
// should look again regardless — see the package comment on what only a
// deadline can announce.
func (s *Store) WaitChange(ctx context.Context, since ChangeStamp, fallback time.Duration) {
	w := &s.waiters
	w.mu.Lock()
	if ChangeStamp(w.seq.Load()) != since {
		w.mu.Unlock()
		return
	}
	ch := w.ch
	w.n++
	if !w.probing && s.dir != "" { // without a directory no other handle can append
		w.probing = true
		go s.probeLoop()
	}
	w.mu.Unlock()

	deadline := time.NewTimer(fallback)
	select {
	case <-ch:
	case <-ctx.Done():
	case <-deadline.C:
	}
	deadline.Stop()
	w.mu.Lock()
	w.n--
	w.mu.Unlock()
}

// probeLoop is the handle's prober; it lives as long as somebody waits.
func (s *Store) probeLoop() {
	w := &s.waiters
	for {
		time.Sleep(probeEvery)
		w.mu.Lock()
		if w.n == 0 {
			w.probing = false
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		if s.logMoved() {
			// The refresh every locked call starts with is the reaction; a
			// closed store is for the waiter's next call to report.
			_ = s.withLock(func() error { return nil })
		}
	}
}

// logMoved is the probe: whether the open log holds bytes this handle has
// not accounted for, or has been unlinked — a compaction removed the old
// generation. It errs towards false; the fallback deadline covers the rest.
func (s *Store) logMoved() bool {
	fd := s.walFd.Load()
	if fd < 0 {
		return false
	}
	size, nlink, err := fileStat(int(fd))
	return err == nil && (nlink == 0 || size > s.seen.Load())
}
