package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestForEachCellCoversAllCells(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 37
		hit := make([]int32, n)
		if err := ForEachCell(workers, n, func(i int) error {
			atomic.AddInt32(&hit[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachCellBoundsWorkers(t *testing.T) {
	const workers, n = 3, 40
	var cur, peak int32
	var mu sync.Mutex
	err := ForEachCell(workers, n, func(i int) error {
		c := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if c > peak {
			peak = c
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Errorf("observed %d concurrent cells, pool bound is %d", peak, workers)
	}
}

func TestForEachCellReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachCell(workers, 20, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Errorf("workers=%d: err = %v, want cell 7's", workers, err)
		}
	}
	if err := ForEachCell(4, 0, func(int) error { return errors.New("no") }); err != nil {
		t.Errorf("n=0: err = %v", err)
	}
}

func TestCellSeedDeterministicAndDecorrelated(t *testing.T) {
	if CellSeed(42, "suite/analytic", 3) != CellSeed(42, "suite/analytic", 3) {
		t.Error("same triple yields different seeds")
	}
	seen := map[int64]string{}
	for _, study := range []string{"suite/analytic", "suite/profile", "ablation/full-profile"} {
		for cell := 0; cell < 54; cell++ {
			s := CellSeed(42, study, cell)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s/%d vs %s", study, cell, prev)
			}
			seen[s] = fmt.Sprintf("%s/%d", study, cell)
		}
	}
}

func TestForEachCellCtxCancelled(t *testing.T) {
	// An already-cancelled context runs nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEachCellCtx(ctx, workers, 20, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if workers == 1 && ran.Load() != 0 {
			t.Errorf("workers=1: %d cells ran under a cancelled context", ran.Load())
		}
	}

	// Cancelling mid-run stops scheduling new cells and reports ctx.Err().
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEachCellCtx(ctx, workers, 1000, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Errorf("workers=%d: all %d cells ran despite cancellation", workers, n)
		}
	}

	// A cell error still wins over the cancellation it caused.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	err := ForEachCellCtx(ctx2, 1, 10, func(i int) error {
		if i == 3 {
			cancel2()
			return fmt.Errorf("cell 3 failed")
		}
		return nil
	})
	if err == nil || err.Error() != "cell 3 failed" {
		t.Errorf("err = %v, want cell 3's", err)
	}
}

// TestRunnerCtxCancelsLabStudies exercises the Lab.WithContext path: a
// cancelled view aborts suite studies with ctx.Err() instead of results.
func TestRunnerCtxCancelsLabStudies(t *testing.T) {
	l, err := NewLab(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.WithContext(ctx).RunSuite("analytic"); !errors.Is(err, context.Canceled) {
		t.Errorf("RunSuite on cancelled lab view: err = %v, want context.Canceled", err)
	}
	// The original lab is unaffected and still works.
	if _, err := l.RunSuite("analytic"); err != nil {
		t.Errorf("RunSuite on original lab: %v", err)
	}
}

// studyTranscript renders a representative batch of studies — a serial
// cell, suite cells, probe cells, breakdown cells and shape cells — to one
// buffer.
func studyTranscript(t *testing.T, l *Lab) []byte {
	t.Helper()
	var buf bytes.Buffer
	labFn := func() (*Lab, error) { return l, nil }
	for _, name := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "breakdown", "shapes"} {
		if err := RenderStudy(context.Background(), name, l.Cfg, labFn, &buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestStudyDeterminismAcrossWorkerCounts is the engine's core contract:
// study reports are byte-identical at workers=1 and workers=8, because
// every cell's noise stream is seeded from (study, cell index), not from
// execution order.
func TestStudyDeterminismAcrossWorkerCounts(t *testing.T) {
	transcripts := make([][]byte, 2)
	for i, workers := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.Parallelism = workers
		l, err := NewLab(cfg)
		if err != nil {
			t.Fatal(err)
		}
		transcripts[i] = studyTranscript(t, l)
	}
	if !bytes.Equal(transcripts[0], transcripts[1]) {
		t.Errorf("study transcripts differ between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			transcripts[0], transcripts[1])
	}
}

// TestStandaloneStudyDeterminism covers the studies that assemble their own
// environments (and thus their own passes) rather than going through Lab.
func TestStandaloneStudyDeterminism(t *testing.T) {
	transcripts := make([][]byte, 2)
	for i, workers := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.Parallelism = workers
		var buf bytes.Buffer
		for _, name := range []string{"sensitivity", "environments"} {
			if err := RenderStudy(context.Background(), name, cfg, nil, &buf); err != nil {
				t.Fatal(err)
			}
		}
		transcripts[i] = buf.Bytes()
	}
	if !bytes.Equal(transcripts[0], transcripts[1]) {
		t.Errorf("standalone study transcripts differ between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			transcripts[0], transcripts[1])
	}
}

// TestCellsInOrder pins the sequential cell loop every job family's
// in-process run goes through: results in index order, n/n progress, the
// first failing cell aborts, and cancellation is honoured between cells.
func TestCellsInOrder(t *testing.T) {
	prog := &obs.Progress{}
	cells, err := CellsInOrder(context.Background(), prog, 4, func(i int) (int, error) { return i * i, nil })
	if err != nil || fmt.Sprint(cells) != "[0 1 4 9]" {
		t.Fatalf("cells = %v, err = %v", cells, err)
	}
	if snap := prog.Snapshot(); snap.CellsDone != 4 || snap.CellsTotal != 4 {
		t.Errorf("progress = %+v, want 4/4", snap)
	}

	boom := errors.New("boom")
	ran := 0
	_, err = CellsInOrder(context.Background(), nil, 4, func(i int) (int, error) {
		ran++
		if i == 1 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || ran != 2 {
		t.Errorf("failing cell 1: err = %v after %d cells, want boom after 2", err, ran)
	}

	ctx, cancel := context.WithCancel(context.Background())
	prog = &obs.Progress{}
	_, err = CellsInOrder(ctx, prog, 4, func(i int) (int, error) {
		cancel()
		return i, nil
	})
	if !errors.Is(err, context.Canceled) || prog.Snapshot().CellsDone != 1 {
		t.Errorf("cancelled after cell 0: err = %v, progress = %+v", err, prog.Snapshot())
	}
}

// A panic on a worker goroutine reaches the caller's goroutine — where a
// server can recover it — with the stack of the goroutine that raised it,
// whatever the worker count.
func TestForEachCellRelaysWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic in a cell did not reach the caller", workers)
				}
				if workers == 1 {
					return // the serial loop panics on the caller's goroutine as it is
				}
				cp, ok := r.(CellPanic)
				if !ok || cp.Value != "cell 5 blew up" || !strings.Contains(string(cp.Stack), "runner_test.go") {
					t.Fatalf("workers=%d: recovered %#v", workers, r)
				}
			}()
			_ = ForEachCell(workers, 16, func(cell int) error {
				if cell == 5 {
					panic("cell 5 blew up")
				}
				return nil
			})
		}()
	}
}
