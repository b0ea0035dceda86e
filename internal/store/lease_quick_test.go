package store

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
)

// Property tests over the lease state machine, driven by testing/quick
// against a simulated clock: random scripts of submit / claim / renew /
// complete / release / clock-advance operations, with the IP-pool lease
// invariants checked after every step.
//
// Invariants:
//
//  1. No double live leases — a successful claim only ever displaces a
//     holder whose lease had expired at claim time, so at no instant do two
//     replicas both believe they hold an unexpired lease on one job.
//  2. Sticky preference — when a claiming replica has an expired lease of
//     its own up for grabs, the claim returns one of its own jobs.
//  3. Expired leases are eventually reclaimed — once submissions stop and
//     the clock passes every expiry, repeated claims drain the pool: every
//     non-terminal job ends up running under a live lease.

// leaseScript is a randomly generated operation script. Implementing
// quick.Generator keeps the op encoding in one place.
type leaseScript struct {
	ops []byte
}

func (leaseScript) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(60) + 20
	ops := make([]byte, n)
	r.Read(ops)
	return reflect.ValueOf(leaseScript{ops: ops})
}

var quickHolders = []string{"r1", "r2", "r3"}

func TestLeaseStateMachineProperties(t *testing.T) {
	run := func(script leaseScript) bool {
		clock := newFakeClock()
		dir := t.TempDir()
		s, err := Open(dir, Options{Now: clock.Now})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()

		const ttl = 10 * time.Second
		running := make(map[string]string) // job -> holder, this script's belief
		for i, op := range script.ops {
			holder := quickHolders[int(op>>4)%len(quickHolders)]
			switch op % 5 {
			case 0: // submit
				if _, err := s.SubmitJob(fmt.Sprintf("kind-%d", i), nil); err != nil {
					t.Fatalf("op %d: SubmitJob: %v", i, err)
				}
			case 1: // claim
				prev := snapshotJobs(t, s)
				rec, ok, err := s.Claim(holder, ttl)
				if err != nil {
					t.Fatalf("op %d: Claim: %v", i, err)
				}
				if !ok {
					break
				}
				now := clock.Now()
				before := prev[rec.ID]
				// Invariant 1: displacing a different holder requires that
				// holder's lease to have expired.
				if before.Holder != "" && before.Holder != holder && before.LeaseExpiry.After(now) {
					t.Fatalf("op %d: %s stole %s from %s with a live lease (expiry %v, now %v)",
						i, holder, rec.ID, before.Holder, before.LeaseExpiry, now)
				}
				// Invariant 2: sticky preference for the claimant's own
				// expired jobs.
				for id, j := range prev {
					if j.Holder == holder && claimable(&j, now) && before.Holder != holder {
						t.Fatalf("op %d: %s claimed %s while its own job %s was claimable",
							i, holder, rec.ID, id)
					}
				}
				running[rec.ID] = holder
			case 2: // renew by the believed holder
				for id, h := range running {
					if h != holder {
						continue
					}
					err := s.Renew(id, holder, ttl, nil)
					if err == ErrLeaseLost {
						delete(running, id) // someone reclaimed it; belief corrected
					} else if err != nil {
						t.Fatalf("op %d: Renew: %v", i, err)
					}
					break
				}
			case 3: // complete or release by the believed holder
				for id, h := range running {
					if h != holder {
						continue
					}
					var err error
					if op&0x08 != 0 {
						err = s.Release(id, holder)
					} else {
						err = s.Complete(id, holder, "out", nil)
					}
					if err != nil && err != ErrLeaseLost {
						t.Fatalf("op %d: finish: %v", i, err)
					}
					delete(running, id)
					break
				}
			case 4: // advance the clock, sometimes past the TTL
				step := time.Duration(op) * time.Second / 8
				clock.Advance(step)
			}
		}

		// Invariant 3: quiesce — push every lease past expiry, then let one
		// replica drain the pool. Every non-terminal job must be claimable
		// and get claimed.
		clock.Advance(ttl + time.Second)
		for {
			_, ok, err := s.Claim("r1", ttl)
			if err != nil {
				t.Fatalf("drain Claim: %v", err)
			}
			if !ok {
				break
			}
		}
		now := clock.Now()
		for id, j := range snapshotJobs(t, s) {
			if terminal(j.State) {
				continue
			}
			if j.State != StateRunning || j.Holder != "r1" || !j.LeaseExpiry.After(now) {
				t.Fatalf("after drain, job %s not reclaimed: %+v", id, j)
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func snapshotJobs(t *testing.T, s *Store) map[string]JobRecord {
	t.Helper()
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	out := make(map[string]JobRecord, len(jobs))
	for _, j := range jobs {
		out[j.ID] = j
	}
	return out
}

// TestLogLessHandleIsTheSameStateMachine drives a handle without a directory
// and a file-backed one through the same seeded scripts — every job and cell
// operation, clock steps past expiry, prunes, and the file-backed handle
// closed and reopened — under one simulated clock, and requires the same
// result and error from every call and the same observable state after it.
func TestLogLessHandleIsTheSameStateMachine(t *testing.T) {
	const (
		seeds = 5
		steps = 500
		ttl   = 10 * time.Second
	)
	// render flattens a call's results to something comparable: records hold
	// pointers, errors are compared by message.
	render := func(err error, results ...any) string {
		data, jerr := json.Marshal(results)
		if jerr != nil {
			t.Fatal(jerr)
		}
		return fmt.Sprintf("%s err=%v", data, err)
	}
	observe := func(s *Store) string {
		jobs, err := s.Jobs()
		out := render(err, jobs)
		for _, j := range jobs {
			cells, ok, err := s.Cells(j.ID)
			out += "\n" + render(err, j.ID, cells, ok)
			sum, ok, err := s.CellSummary(j.ID)
			out += "\n" + render(err, sum, ok)
		}
		return out
	}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			clock := newFakeClock()
			dir := t.TempDir()
			mem, file := NewMemory(Options{Now: clock.Now}), openTestStore(t, dir, clock)
			var ids []string
			for step := 0; step < steps; step++ {
				// Every draw happens before either handle is touched.
				op := r.Intn(17)
				job, holder := "job-0", quickHolders[r.Intn(len(quickHolders))]
				if len(ids) > 0 && r.Intn(8) > 0 {
					job = ids[r.Intn(len(ids))]
				}
				cell, n, flag, onlyJob := r.Intn(4), r.Intn(4), r.Intn(2) == 0, ""
				if r.Intn(3) == 0 {
					onlyJob = job
				}
				if r.Intn(4) > 0 { // mostly, whoever holds the lease asks
					if rec, ok, _ := mem.Job(job); ok && rec.Holder != "" {
						holder = rec.Holder
					}
					if cells, _, _ := mem.Cells(job); cell < len(cells) && cells[cell].Holder != "" {
						holder = cells[cell].Holder
					}
				}
				prog := &obs.ProgressSnapshot{CellsDone: int64(n), TrialsUsed: int64(step)}
				apply := func(s *Store) string {
					switch op {
					case 0, 1:
						rec, err := s.SubmitJobBounded("kind", json.RawMessage(`{"n":1}`), 4)
						return render(err, rec)
					case 2, 3:
						rec, ok, err := s.Claim(holder, ttl)
						return render(err, rec, ok)
					case 4:
						return render(s.Renew(job, holder, ttl, prog))
					case 5:
						return render(s.Complete(job, holder, "out", prog))
					case 6:
						return render(s.Fail(job, holder, "boom"))
					case 7:
						return render(s.Cancel(job, holder, "stop"))
					case 8:
						return render(s.Release(job, holder))
					case 9:
						return render(s.PlanCells(job, n+1))
					case 10, 11:
						rec, ok, err := s.ClaimCell(holder, ttl, onlyJob)
						return render(err, rec, ok)
					case 12:
						return render(s.RenewCell(job, cell, holder, ttl, prog))
					case 13:
						errMsg := ""
						if n == 0 {
							errMsg = "cell boom"
						}
						rec, ok, err := s.CompleteCellAndClaim(job, cell, holder, []byte{byte(step)}, errMsg, prog, flag, onlyJob, ttl)
						return render(err, rec, ok)
					case 14:
						return render(s.ReleaseCell(job, cell, holder))
					case 15:
						// Not CompactPast: when a log is due for folding is the
						// one thing the handles are meant to disagree on.
						return render(s.Compact(n + 1))
					default:
						results, err := s.CellResults(job)
						return render(err, results, s.Queued(), s.Heartbeat(holder, ttl))
					}
				}
				switch {
				case op == 16 && flag:
					clock.Advance(time.Duration(n) * ttl / 2) // up to 1.5 leases
				case op == 16 && n == 0:
					// What the file-backed handle replays from its directory is
					// what the other never stopped holding.
					file.Close()
					file = openTestStore(t, dir, clock)
				}
				got, want := apply(mem), apply(file)
				if got != want {
					t.Fatalf("step %d op %d: without a directory\n%s\nfile-backed\n%s", step, op, got, want)
				}
				if op <= 1 {
					if rec, ok, _ := mem.Job(fmt.Sprintf("job-%d", mem.st.seq)); ok {
						ids = append(ids, rec.ID)
					}
				}
				if got, want := observe(mem), observe(file); got != want {
					t.Fatalf("after step %d op %d: without a directory\n%s\nfile-backed\n%s", step, op, got, want)
				}
			}
		})
	}
}
