package service

import (
	"context"
	"testing"
	"time"

	"repro/internal/store"
)

// BenchmarkStudyJob times study jobs from submission to done, on a log-less
// service and on two replicas sharing one store directory (submitted to the
// first). Each timed job but fig1-again runs on a suite seed
// no earlier job used, so it scores its suite afresh; the fits are the
// registry's, made by an untimed warm-up job.
func BenchmarkStudyJob(b *testing.B) {
	seed := int64(3000)
	fresh := func() int64 { seed++; return seed }
	b.Run("memory", func(b *testing.B) {
		svc := New(DefaultOptions())
		defer svc.Close(context.Background())
		runStudyJob(b, svc, StudyRequest{Study: "fig1"})
		b.Run("fig1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runStudyJob(b, svc, StudyRequest{Study: "fig1", SuiteSeed: fresh()})
			}
		})
		b.Run("fig1-again", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runStudyJob(b, svc, StudyRequest{Study: "fig1"})
			}
		})
		b.Run("fig8-after-fig1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := fresh()
				runStudyJob(b, svc, StudyRequest{Study: "fig1", SuiteSeed: s})
				b.StartTimer()
				runStudyJob(b, svc, StudyRequest{Study: "fig8", SuiteSeed: s})
			}
		})
		b.Run("sensitivity", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runStudyJob(b, svc, StudyRequest{Study: "sensitivity", SuiteSeed: fresh()})
			}
		})
	})
	b.Run("two-replicas", func(b *testing.B) {
		dir := b.TempDir()
		replica := func(id string) *Service {
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Store, opts.ReplicaID = st, id
			svc := New(opts)
			b.Cleanup(func() {
				svc.Close(context.Background())
				st.Close()
			})
			return svc
		}
		a, other := replica("alpha"), replica("beta")
		runStudyJob(b, a, StudyRequest{Study: "fig1"})
		runStudyJob(b, other, StudyRequest{Study: "fig1"})
		for _, study := range []string{"fig1", "sensitivity"} {
			b.Run(study, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runStudyJob(b, a, StudyRequest{Study: study, SuiteSeed: fresh()})
				}
			})
		}
	})
}

// runStudyJob submits req and waits until the job is done.
func runStudyJob(b *testing.B, svc *Service, req StudyRequest) {
	status, err := svc.SubmitStudy(req)
	if err != nil {
		b.Fatal(err)
	}
	for !terminalState(status.State) {
		status, _ = svc.Jobs().Watch(context.Background(), status.ID, time.Second)
	}
	if status.State != JobDone {
		b.Fatalf("%s job = %+v", req.Study, status)
	}
}
