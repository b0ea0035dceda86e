package service

import (
	"context"
	"errors"
	"testing"
	"time"
)

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, m *JobManager, id string, want ...JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		status, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		for _, s := range want {
			if status.State == s {
				return status
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	status, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s, want one of %v", id, status.State, want)
	return JobStatus{}
}

func TestJobLifecycle(t *testing.T) {
	m := NewJobManager(2, 4, 8, Dispatch{})
	defer m.Shutdown(context.Background())

	status, err := m.Submit("greet", func(ctx context.Context) (string, error) {
		return "hello", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if status.State != JobQueued {
		t.Fatalf("initial state = %s, want queued", status.State)
	}
	done := waitState(t, m, status.ID, JobDone)
	if done.Output != "hello" {
		t.Errorf("output = %q, want hello", done.Output)
	}
	if done.Error != "" {
		t.Errorf("unexpected error %q", done.Error)
	}

	status, err = m.Submit("fail", func(ctx context.Context) (string, error) {
		return "", errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, status.ID, JobFailed)
	if failed.Error != "boom" {
		t.Errorf("error = %q, want boom", failed.Error)
	}
}

func TestJobQueueBounded(t *testing.T) {
	m := NewJobManager(1, 2, 8, Dispatch{})
	defer m.Shutdown(context.Background())

	block := make(chan struct{})
	release := func(ctx context.Context) (string, error) {
		select {
		case <-block:
			return "ok", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	// One running + two queued fill the pool and the queue.
	var ids []string
	for i := 0; i < 3; i++ {
		status, err := m.Submit("block", release)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, status.ID)
		if i == 0 {
			waitState(t, m, status.ID, JobRunning)
		}
	}
	if _, err := m.Submit("overflow", release); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	close(block)
	for _, id := range ids {
		waitState(t, m, id, JobDone)
	}
}

func TestShutdownCancelsQueuedAndRunningJobs(t *testing.T) {
	m := NewJobManager(1, 4, 8, Dispatch{})

	running, err := m.Submit("running", func(ctx context.Context) (string, error) {
		<-ctx.Done() // honours cancellation, like the studies do
		return "", ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, JobRunning)

	var queued []string
	for i := 0; i < 3; i++ {
		status, err := m.Submit("queued", func(ctx context.Context) (string, error) {
			return "should not run", ctx.Err()
		})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, status.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := waitState(t, m, running.ID, JobCancelled); got.Error == "" {
		t.Errorf("running job cancelled without error message")
	}
	for _, id := range queued {
		status, ok := m.Get(id)
		if !ok {
			t.Fatalf("queued job %s evicted", id)
		}
		if status.State != JobCancelled {
			t.Errorf("queued job %s state = %s, want cancelled", id, status.State)
		}
		if status.Output != "" {
			t.Errorf("queued job %s ran: output %q", id, status.Output)
		}
	}

	if _, err := m.Submit("late", func(ctx context.Context) (string, error) { return "", nil }); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after shutdown: err = %v, want ErrShuttingDown", err)
	}
}

func TestJobRetentionEvictsOldest(t *testing.T) {
	m := NewJobManager(1, 8, 2, Dispatch{})
	defer m.Shutdown(context.Background())

	var ids []string
	for i := 0; i < 5; i++ {
		status, err := m.Submit("quick", func(ctx context.Context) (string, error) { return "ok", nil })
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, status.ID)
		waitState(t, m, status.ID, JobDone) // serialise so eviction order is stable
	}
	list := m.List()
	if len(list) != 2 {
		t.Fatalf("retained %d jobs, want 2: %+v", len(list), list)
	}
	if list[0].ID != ids[3] || list[1].ID != ids[4] {
		t.Errorf("retained %s, %s; want the two most recent %s, %s",
			list[0].ID, list[1].ID, ids[3], ids[4])
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Errorf("oldest job %s still retrievable", ids[0])
	}
}
