package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// This file is the concurrent study-execution engine. Every study in this
// package decomposes into independent cells — one (DAG instance, algorithm
// set, model/variant/environment) unit of work — and runs them on a bounded
// worker pool. Two properties make the parallelism invisible in the output:
//
//   - each cell draws its run-to-run noise from a cluster.Session seeded
//     deterministically from (lab noise seed, study name, cell index), so a
//     cell's measurements never depend on which worker ran it or on what
//     ran before it;
//   - cell results are written into index-addressed slots and aggregated in
//     cell order after the pool drains.
//
// Together these make every study report byte-identical for any worker
// count, including 1.

// DefaultParallelism is the worker count used when Config.Parallelism is
// zero: one worker per logical CPU.
func DefaultParallelism() int { return runtime.NumCPU() }

// CellSeed derives the deterministic noise seed of one study cell from the
// lab-wide noise seed, the study name and the cell index (FNV-1a over the
// three). Distinct studies and distinct cells get decorrelated streams;
// the same triple always gets the same stream.
func CellSeed(noiseSeed int64, study string, cell int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(noiseSeed))
	h.Write(buf[:])
	h.Write([]byte(study))
	binary.LittleEndian.PutUint64(buf[:], uint64(cell))
	h.Write(buf[:])
	return int64(h.Sum64())
}

// CellsInOrder runs fn(0) … fn(n-1) one after the other and returns their
// results in index order — the in-process middle step of a job family's
// prepare → cells → merge, whose cells fan out over the worker pool
// themselves. Cancellation is checked between cells, the first failing cell
// aborts the run, and prog (nil is fine) receives n as the cell total and one
// done cell per result.
func CellsInOrder[C any](ctx context.Context, prog *obs.Progress, n int, fn func(cell int) (C, error)) ([]C, error) {
	prog.AddCellsTotal(int64(n))
	cells := make([]C, n)
	for i := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if cells[i], err = fn(i); err != nil {
			return nil, err
		}
		prog.AddCellsDone(1)
	}
	return cells, nil
}

// ForEachCell runs fn(0) … fn(n-1) on at most workers goroutines
// (DefaultParallelism if workers <= 0) and returns the error of the
// lowest-index failing cell, so error reporting is as deterministic as the
// results. fn must confine its writes to per-index state.
func ForEachCell(workers, n int, fn func(cell int) error) error {
	return ForEachCellCtx(context.Background(), workers, n, fn)
}

// ForEachCellCtx is ForEachCell with cancellation: once ctx is done, cells
// that have not started are skipped (in-flight cells finish — fn is never
// interrupted mid-cell) and ctx.Err() is returned. A cancelled run never
// returns partial results as success; a run whose every cell completed
// returns nil even if ctx was cancelled at the very end, so the outcome
// does not depend on the worker count. A run that is not cancelled is
// byte-for-byte the same as ForEachCell.
func ForEachCellCtx(ctx context.Context, workers, n int, fn func(cell int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next, completed int64
	var failed atomic.Bool
	var panicked atomic.Pointer[CellPanic]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic on a worker goroutine would end the process whatever
			// the caller does; relay it to the caller's goroutine instead,
			// where it behaves like a panic of the serial loop.
			defer func() {
				if r := recover(); r != nil {
					failed.Store(true)
					panicked.CompareAndSwap(nil, &CellPanic{Value: r, Stack: debug.Stack()})
				}
			}()
			for {
				// Once any cell fails (or the context is cancelled), skip
				// cells that have not started: the results will be
				// discarded anyway. In-flight cells finish, keeping the
				// lowest-index error deterministic among the cells that
				// ran.
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				} else {
					atomic.AddInt64(&completed, 1)
				}
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if int(atomic.LoadInt64(&completed)) == n {
		return nil // every cell ran: a last-moment cancellation is moot
	}
	return ctx.Err()
}

// CellPanic is the value ForEachCellCtx re-panics with on the caller's
// goroutine when fn panicked on a worker's: the original value and the stack
// of the goroutine that raised it.
type CellPanic struct {
	Value any
	Stack []byte
}

func (p CellPanic) String() string { return fmt.Sprintf("%v\n%s", p.Value, p.Stack) }
