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
// complete / release / clock-advance operations on jobs, and of plan / claim
// / renew / complete-and-claim / release operations on their cells, with the
// IP-pool lease invariants checked after every step, for both kinds of work.
//
// Invariants:
//
//  1. No double live leases — a successful claim only ever displaces a
//     holder whose lease had expired at claim time, so at no instant do two
//     replicas both believe they hold an unexpired lease on one job or cell.
//  2. Sticky preference — when a claiming replica has an expired lease of
//     its own up for grabs, the claim returns one of its own jobs (cells).
//  3. Expired leases are eventually reclaimed — once submissions stop and
//     the clock passes every expiry, repeated claims drain the pool: every
//     non-terminal job, and every non-terminal cell of a live plan, ends up
//     running under a live lease.
//
// After every step the count of queued jobs the store keeps must also equal
// a scan of the jobs.

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

// work names a job (cell -1) or one of its cells.
type work struct {
	job  string
	cell int
}

// leaseView is what a claim looked at: the lease of every job and every cell
// of a live plan.
func leaseView(t *testing.T, s *Store) map[work]lease {
	t.Helper()
	out := make(map[work]lease)
	for id, j := range snapshotJobs(t, s) {
		out[work{id, -1}] = j.lease
		cells, _, err := s.Cells(id)
		if err != nil {
			t.Fatalf("Cells: %v", err)
		}
		for _, c := range cells {
			out[work{id, c.Index}] = c.lease
		}
	}
	return out
}

// checkClaim holds one successful claim of w by holder at now to invariants
// 1 and 2 against prev, the leases before it; candidate says which work the
// claim chose among.
func checkClaim(t *testing.T, op int, prev map[work]lease, w work, holder string, now time.Time, candidate func(work) bool) {
	t.Helper()
	before := prev[w]
	// Invariant 1: displacing a different holder requires that holder's
	// lease to have expired.
	if before.Holder != "" && before.Holder != holder && before.LeaseExpiry.After(now) {
		t.Fatalf("op %d: %s stole %v from %s with a live lease (expiry %v, now %v)",
			op, holder, w, before.Holder, before.LeaseExpiry, now)
	}
	// Invariant 2: sticky preference for the claimant's own expired work.
	for other, l := range prev {
		if candidate(other) && l.Holder == holder && claimable(&l, now) && before.Holder != holder {
			t.Fatalf("op %d: %s claimed %v while its own %v was claimable", op, holder, w, other)
		}
	}
}

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
		running := make(map[work]string) // job or cell -> holder, this script's belief
		isJob := func(w work) bool { return w.cell < 0 }
		// cellClaimed records a cell claim and checks it; onlyJob is the job it
		// was restricted to, "" for any, and except the cell it completed.
		cellClaimed := func(i int, prev map[work]lease, c CellRecord, holder, onlyJob string, except work) {
			w := work{c.Job, c.Index}
			checkClaim(t, i, prev, w, holder, clock.Now(), func(o work) bool {
				return o.cell >= 0 && (onlyJob == "" || o.job == onlyJob) && o != except
			})
			running[w] = holder
		}
		// believed returns some work of the wanted kind holder believes it
		// holds.
		believed := func(holder string, cells bool) (work, bool) {
			for w, h := range running {
				if h == holder && (w.cell >= 0) == cells {
					return w, true
				}
			}
			return work{}, false
		}
		for i, op := range script.ops {
			holder := quickHolders[int(op>>4)%len(quickHolders)]
			switch op % 9 {
			case 0: // submit
				if _, err := s.SubmitJob(fmt.Sprintf("kind-%d", i), nil); err != nil {
					t.Fatalf("op %d: SubmitJob: %v", i, err)
				}
			case 1: // claim a job
				prev := leaseView(t, s)
				rec, ok, err := s.Claim(holder, ttl)
				if err != nil {
					t.Fatalf("op %d: Claim: %v", i, err)
				}
				if ok {
					checkClaim(t, i, prev, work{rec.ID, -1}, holder, clock.Now(), isJob)
					running[work{rec.ID, -1}] = holder
				}
			case 2, 6: // renew by the believed holder
				w, ok := believed(holder, op%9 == 6)
				if !ok {
					break
				}
				err := s.RenewLease(w.job, w.cell, holder, ttl, nil)
				if err == ErrLeaseLost {
					delete(running, w) // someone reclaimed it; belief corrected
				} else if err != nil {
					t.Fatalf("op %d: RenewLease(%v): %v", i, w, err)
				}
			case 3: // complete or release a job by the believed holder
				w, ok := believed(holder, false)
				if !ok {
					break
				}
				if op&0x08 != 0 {
					err = s.ReleaseLease(w.job, -1, holder)
				} else {
					err = s.Complete(w.job, holder, "out", nil)
				}
				if err != nil && err != ErrLeaseLost {
					t.Fatalf("op %d: finish: %v", i, err)
				}
				delete(running, w)
			case 4: // advance the clock, sometimes past the TTL
				step := time.Duration(op) * time.Second / 8
				clock.Advance(step)
			case 5: // plan three cells for a live job
				for id, j := range snapshotJobs(t, s) {
					if !terminal(j.State) {
						if err := s.PlanCells(id, 3); err != nil {
							t.Fatalf("op %d: PlanCells(%s): %v", i, id, err)
						}
						break
					}
				}
			case 7: // claim a cell, of one job's plan when op says so
				onlyJob := ""
				if op&0x08 != 0 {
					for w := range leaseView(t, s) {
						if w.cell >= 0 {
							onlyJob = w.job
							break
						}
					}
				}
				prev := leaseView(t, s)
				c, ok, err := s.ClaimCell(holder, ttl, onlyJob)
				if err != nil {
					t.Fatalf("op %d: ClaimCell: %v", i, err)
				}
				if ok {
					cellClaimed(i, prev, c, holder, onlyJob, work{})
				}
			case 8: // complete (maybe claiming the next) or release a cell
				w, ok := believed(holder, true)
				if !ok {
					break
				}
				delete(running, w)
				if op&0x08 != 0 {
					if err := s.ReleaseLease(w.job, w.cell, holder); err != nil && err != ErrLeaseLost {
						t.Fatalf("op %d: ReleaseLease(%v): %v", i, w, err)
					}
					break
				}
				prev := leaseView(t, s)
				c, ok, err := s.CompleteCellAndClaim(w.job, w.cell, holder, []byte("frame"), "", nil, op&0x04 != 0, "", ttl)
				if err != nil {
					break // the job finished and dropped its plan
				}
				if ok {
					cellClaimed(i, prev, c, holder, "", w)
				}
			}
			queued := 0
			for _, j := range snapshotJobs(t, s) {
				if j.State == StateQueued {
					queued++
				}
			}
			if got := s.Queued(); got != queued {
				t.Fatalf("op %d: %d jobs counted queued, %d are", i, got, queued)
			}
		}

		// Invariant 3: quiesce — push every lease past expiry, then let one
		// replica drain the pool, jobs first, then cells. Every non-terminal
		// job and cell must be claimable and get claimed.
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
		for {
			_, ok, err := s.ClaimCell("r1", ttl, "")
			if err != nil {
				t.Fatalf("drain ClaimCell: %v", err)
			}
			if !ok {
				break
			}
		}
		now := clock.Now()
		for w, l := range leaseView(t, s) {
			if terminal(l.State) {
				continue
			}
			if l.State != StateRunning || l.Holder != "r1" || !l.LeaseExpiry.After(now) {
				t.Fatalf("after drain, %v not reclaimed: %+v", w, l)
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
						return render(s.ReleaseLease(job, -1, holder))
					case 9:
						return render(s.PlanCells(job, n+1))
					case 10, 11:
						rec, ok, err := s.ClaimCell(holder, ttl, onlyJob)
						return render(err, rec, ok)
					case 12:
						return render(s.RenewLease(job, cell, holder, ttl, prog))
					case 13:
						errMsg := ""
						if n == 0 {
							errMsg = "cell boom"
						}
						rec, ok, err := s.CompleteCellAndClaim(job, cell, holder, []byte{byte(step)}, errMsg, prog, flag, onlyJob, ttl)
						return render(err, rec, ok)
					case 14:
						return render(s.ReleaseLease(job, cell, holder))
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
