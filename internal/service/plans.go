package service

import (
	"fmt"
	"sync"
)

// The prepared-plan cache: one replica resolves each job's plan once
// — not once per cell it executes, and not again after validating it at
// submission.

// planEntry is one cached plan resolution.
type planEntry struct {
	once sync.Once
	plan Plan
	err  error
}

// planCacheCap bounds the prepared-plan cache; entries beyond it are evicted
// oldest-first. Replicas rarely interleave more than a few jobs, and a miss
// only costs re-resolving a plan.
const planCacheCap = 8

// plan resolves a job's (kind, payload) to its prepared plan through the
// cache. It is the service's Dispatch.Plan.
func (s *Service) plan(kind string, payload []byte) (Plan, error) {
	f := s.family(kind)
	if f == nil {
		return nil, fmt.Errorf("service: no job family runs kind %q", kind)
	}
	return s.cachedPlan(kind, payload, func() (Plan, error) { return f.Prepare(payload, s.defaults()) })
}

// cachedPlan returns the cache's plan for (kind, payload), resolving it on
// first use. A failed resolution is not retained: it may be the
// environment's fault — a trace file missing when the job first ran — and
// the next job with the same payload deserves a fresh look.
func (s *Service) cachedPlan(kind string, payload []byte, resolve func() (Plan, error)) (Plan, error) {
	key := kind + "\x00" + string(payload)
	s.planMu.Lock()
	e, ok := s.plans[key]
	if !ok {
		e = &planEntry{}
		s.plans[key] = e
		s.planOrder = append(s.planOrder, key)
		for len(s.planOrder) > planCacheCap {
			delete(s.plans, s.planOrder[0])
			s.planOrder = s.planOrder[1:]
		}
	}
	s.planMu.Unlock()
	e.once.Do(func() { e.plan, e.err = resolve() })
	if e.err != nil {
		s.planMu.Lock()
		if s.plans[key] == e {
			delete(s.plans, key)
			for i, k := range s.planOrder {
				if k == key {
					s.planOrder = append(s.planOrder[:i], s.planOrder[i+1:]...)
					break
				}
			}
		}
		s.planMu.Unlock()
	}
	return e.plan, e.err
}
