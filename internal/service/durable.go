package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// What a job manager does because leases on its pool can run out and other
// handles can take work from it: keep what a worker holds renewed, and run a
// planned job as cell work-units every claim loop on the pool cooperates on.

// cellsDone counts sharded cells this replica executed to completion — the
// per-replica share of a cluster's cooperative jobs.
var cellsDone = obs.Default.Counter("repro_jobs_cells_done_total",
	"Sharded job cells executed to completion by this replica.")

// renewEvery is the cadence at which a held lease is renewed, carrying the
// holder's progress snapshot to the store, and at which a sharded job's
// gather folds its cells' snapshots into the job's: a third of the lease. A
// lease on a pool without a log cannot run out, but there a renewal is only a
// map write and still the one way a cell's progress reaches its job, so it
// comes as often as a watcher looks.
func (m *JobManager) renewEvery() time.Duration {
	if !m.Durable() {
		return watchPoll
	}
	return max(m.ttl/3, 20*time.Millisecond)
}

// leaseKeeper keeps whatever one worker holds — a job, or the current cell
// of a chain of cells — leased while the worker runs it: every renewEvery it
// renews the lease last named with hold, storing that work's progress
// snapshot alongside. Losing the lease cancels the worker's context.
type leaseKeeper struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	job  string // "" while nothing is held
	cell int    // the cell of job that is held; -1 for the job itself
	prog *obs.Progress
	lost bool
}

// keepLease starts a keeper; work under it runs on the returned context.
func (m *JobManager) keepLease(parent context.Context) (*leaseKeeper, context.Context) {
	ctx, cancel := context.WithCancel(parent)
	k := &leaseKeeper{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(k.done)
		tick := time.NewTicker(m.renewEvery())
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			k.mu.Lock()
			job, cell, prog := k.job, k.cell, k.prog
			k.mu.Unlock()
			if job == "" {
				continue
			}
			err := m.st.RenewLease(job, cell, m.replica, m.ttl, snapPtr(prog.Snapshot()))
			if !errors.Is(err, store.ErrLeaseLost) {
				continue
			}
			// The chain may have moved on while the renewal was in flight;
			// only the lease still held counts as lost.
			k.mu.Lock()
			k.lost = k.job == job && k.cell == cell
			lost := k.lost
			k.mu.Unlock()
			if lost {
				cancel()
				return
			}
		}
	}()
	return k, ctx
}

// hold names the lease to keep from now on.
func (k *leaseKeeper) hold(job string, cell int, prog *obs.Progress) {
	k.mu.Lock()
	k.job, k.cell, k.prog = job, cell, prog
	k.mu.Unlock()
}

// stop ends the renewals and waits for the one in flight.
func (k *leaseKeeper) stop() {
	k.cancel()
	<-k.done
}

// settle is what a worker does with the work it ran under keeper — the job,
// or the cell, last named with hold — once the run returned err, the same for
// a job and a cell. Work whose lease was lost is walked away from: the store
// would fence any write. Work a shutdown of the worker's ctx cut off is handed
// back, so another claim loop restarts it promptly instead of waiting out the
// lease. Otherwise the caller ends the work — done when err is nil, failed
// when not — and settle reports that it should.
func (m *JobManager) settle(ctx context.Context, keeper *leaseKeeper, err error) bool {
	keeper.mu.Lock()
	job, cell, lost := keeper.job, keeper.cell, keeper.lost
	keeper.mu.Unlock()
	shutdown := err != nil && ctx.Err() != nil
	if shutdown && !lost {
		_ = m.st.ReleaseLease(job, cell, m.replica)
	}
	return !lost && !shutdown
}

// gather coordinates a sharded job off the claim loops: it folds every cell's
// stored snapshot into the job's progress, and once all cells are terminal
// reads the result frames back and merges them in plan order. Between looks
// it sleeps until the store announces the result that ends the plan, or for
// renewEvery, so cross-replica trial counts surface mid-run; the fold applies
// signed deltas because a reclaimed cell's restart resets its snapshot
// backwards. Deterministic cells make the merged report byte-identical to an
// in-process run, regardless of which replicas executed which cells or how
// many times a cell was reclaimed.
func (m *JobManager) gather(ctx context.Context, job string, plan Plan, prog *obs.Progress) (string, error) {
	var prev store.CellSummary
	for {
		stamp := m.st.Stamp()
		if sum, ok, err := m.st.CellSummary(job); err == nil && ok {
			prog.AddCellsDone(int64(sum.Done - prev.Done))
			prog.AddTrialsUsed(sum.TrialsUsed - prev.TrialsUsed)
			prog.AddTrialBudget(sum.TrialBudget - prev.TrialBudget)
			prev = sum
			if sum.Failed > 0 {
				return "", fmt.Errorf("cell %d: %s", sum.FailedCell, sum.Err)
			}
			if sum.Done == sum.Total {
				results, err := m.st.CellResults(job)
				if err != nil {
					return "", err
				}
				return plan.Merge(results)
			}
		}
		m.st.WaitChange(ctx, stamp, m.renewEvery())
		if err := ctx.Err(); err != nil {
			return "", err
		}
	}
}

// runCells claims and executes cell work-units — of one job when onlyJob is
// set (the coordinator running its own job's cells), of any sharded job
// otherwise, oldest job first (an idle claim loop helping out). Completing a
// cell claims the next in the same store write, so a replica streams through
// a grid with one store call per cell; the whole chain runs under one lease
// keeper and reads each job it touches, and resolves its plan, once. Reports
// whether any cell was claimed.
func (m *JobManager) runCells(ctx context.Context, onlyJob string) bool {
	cell, more, err := m.st.ClaimCell(m.replica, m.ttl, onlyJob)
	if err != nil || !more {
		return false
	}
	keeper, cctx := m.keepLease(ctx)
	defer keeper.stop()
	var job store.JobRecord
	var plan Plan
	var planErr error
	for more {
		if cell.Job != job.ID {
			var ok bool
			if job, ok, err = m.st.Job(cell.Job); err != nil || !ok {
				_ = m.st.ReleaseLease(cell.Job, cell.Index, m.replica)
				break
			}
			plan, planErr = m.dispatch.Plan(job.Kind, job.Payload)
		}
		cell, more = m.runClaimedCell(ctx, cctx, keeper, plan, planErr, cell, onlyJob)
	}
	return true
}

// runClaimedCell executes one claimed cell of a chain — cctx is the chain's
// context, which its keeper cancels with the lease; ctx the worker's — and
// settles it, writing its result unless the cell was lost or handed back.
// A success chains to a follow-up claim batched into the same write; a
// deterministic failure is recorded so the coordinator fails the job, and
// chains into no more doomed cells of its grid. Cell completion is
// first-write-wins in the store: if this holder was reclaimed mid-run and
// both finish, the duplicate (byte-identical) result is simply ignored.
func (m *JobManager) runClaimedCell(ctx, cctx context.Context, keeper *leaseKeeper, plan Plan, err error,
	cell store.CellRecord, onlyJob string) (store.CellRecord, bool) {
	prog := &obs.Progress{}
	keeper.hold(cell.Job, cell.Index, prog)
	var data []byte
	if err == nil {
		data, err = guarded(func() ([]byte, error) { return plan.RunCell(cctx, cell.Index, prog) })
	}
	if !m.settle(ctx, keeper, err) {
		return store.CellRecord{}, false
	}
	errMsg := ""
	if err != nil {
		data, errMsg = nil, err.Error()
	}
	next, ok, werr := m.st.CompleteCellAndClaim(
		cell.Job, cell.Index, m.replica, data, errMsg, snapPtr(prog.Snapshot()), err == nil, onlyJob, m.ttl)
	if werr != nil || err != nil {
		return store.CellRecord{}, false
	}
	cellsDone.Inc()
	return next, ok
}
