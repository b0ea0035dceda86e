package tgrid

import (
	"fmt"

	"repro/internal/redist"
	"repro/internal/sched"
	"repro/internal/simgrid"
)

// RunOracle is Run as it was before Run replayed on a pooled Replayer: a
// fresh engine, closures and maps per execution, and every TaskWork call made
// at launch. It is kept verbatim as the differential oracle of the replay
// path, except that it takes a fresh engine (the net's engine pool is gone)
// and copies its per-edge maps into Result's slices in Edges order at the
// end. Exported for the external test package.
//
// Execution semantics follow TGrid: a task starts once (a) the output data
// of every predecessor has been redistributed to the task's processor set
// and (b) its processors have been released by the previous tasks the
// schedule placed on them. Each task pays its startup overhead, then runs
// its kernel. Each DAG edge triggers a redistribution as soon as the
// producing task completes: the subnet-manager overhead followed by the
// point-to-point transfers of the 1-D block overlap plan, which contend on
// the network with everything else in flight.
func RunOracle(net *simgrid.Net, s *sched.Schedule, timing Timing) (*Result, error) {
	g := s.Graph
	n := g.Len()
	clusterSize := net.Cluster.Nodes
	if err := s.Validate(clusterSize); err != nil {
		return nil, fmt.Errorf("tgrid: invalid schedule: %w", err)
	}

	engine := net.NewEngine()
	res := &Result{
		TaskStart:      make([]float64, n),
		TaskFinish:     make([]float64, n),
		TaskStartupDur: make([]float64, n),
	}
	redistStart := make(map[[2]int]float64)
	redistFinish := make(map[[2]int]float64)
	redistOverheadDur := make(map[[2]int]float64)

	// Host-occupancy chains: for each task, the set of distinct tasks that
	// must release one of its processors first (the schedule's previous
	// occupant of each host).
	order := s.Order()
	lastOnHost := make([]int, clusterSize)
	for h := range lastOnHost {
		lastOnHost[h] = -1
	}
	hostPrereqs := make([][]int, n) // distinct earlier occupants per task
	for _, id := range order {
		seen := map[int]bool{}
		for _, h := range s.Hosts[id] {
			if prev := lastOnHost[h]; prev >= 0 && !seen[prev] {
				seen[prev] = true
				hostPrereqs[id] = append(hostPrereqs[id], prev)
			}
			lastOnHost[h] = id
		}
	}

	// Prerequisite countdown per task: one per incoming redistribution,
	// one per host-release.
	waiting := make([]int, n)
	for _, t := range g.Tasks {
		waiting[t.ID] = t.InDegree() + len(hostPrereqs[t.ID])
	}

	// releasedBy[id] lists tasks waiting on a host released by id.
	releasedBy := make([][]int, n)
	for id, prereqs := range hostPrereqs {
		for _, p := range prereqs {
			releasedBy[p] = append(releasedBy[p], id)
		}
	}

	var launch func(id int)
	var arrive func(id int) // one prerequisite of id satisfied

	arrive = func(id int) {
		waiting[id]--
		if waiting[id] < 0 {
			panic(fmt.Sprintf("tgrid: task %d over-released", id))
		}
		if waiting[id] == 0 {
			launch(id)
		}
	}

	startRedist := func(src, dst int) {
		key := [2]int{src, dst}
		pSrc, pDst := s.Alloc[src], s.Alloc[dst]
		overhead := timing.RedistOverhead(pSrc, pDst)
		srcTask := g.Task(src)

		var action *simgrid.Action
		if bytes := srcTask.OutputBytes(); bytes > 0 {
			sd, err := redist.NewDist(srcTask.N, pSrc)
			if err != nil {
				panic(fmt.Sprintf("tgrid: edge %d->%d: %v", src, dst, err))
			}
			dd, err := redist.NewDist(srcTask.N, pDst)
			if err != nil {
				panic(fmt.Sprintf("tgrid: edge %d->%d: %v", src, dst, err))
			}
			m, err := redist.CommMatrix(sd, dd)
			if err != nil {
				panic(fmt.Sprintf("tgrid: edge %d->%d: %v", src, dst, err))
			}
			// Combined host list: source ranks then destination ranks.
			hosts := make([]int, 0, pSrc+pDst)
			hosts = append(hosts, s.Hosts[src]...)
			hosts = append(hosts, s.Hosts[dst]...)
			full := make([][]float64, pSrc+pDst)
			for i := range full {
				full[i] = make([]float64, pSrc+pDst)
			}
			for i := 0; i < pSrc; i++ {
				for j := 0; j < pDst; j++ {
					full[i][pSrc+j] = float64(m[i][j])
				}
			}
			action = net.Ptask(fmt.Sprintf("redist-%d-%d", src, dst), hosts, nil, full)
			action.Delay += overhead
		} else {
			action = simgrid.Fixed(fmt.Sprintf("redist-%d-%d", src, dst), overhead)
		}
		redistStart[key] = engine.Now()
		redistOverheadDur[key] = overhead
		action.OnComplete = func(e *simgrid.Engine, _ *simgrid.Action) {
			redistFinish[key] = e.Now()
			arrive(dst)
		}
		engine.Add(action)
	}

	launch = func(id int) {
		task := g.Task(id)
		p := s.Alloc[id]
		startup := timing.TaskStartup(task, p)
		if startup < 0 {
			panic(fmt.Sprintf("tgrid: negative startup for task %d", id))
		}
		fixed, comp, bytes := timing.TaskWork(task, s.Hosts[id])

		var action *simgrid.Action
		if comp == nil && bytes == nil {
			action = simgrid.Fixed(fmt.Sprintf("task-%d", id), startup+fixed)
		} else {
			action = net.Ptask(fmt.Sprintf("task-%d", id), s.Hosts[id], comp, bytes)
			action.Delay += startup + fixed
		}
		res.TaskStart[id] = engine.Now()
		res.TaskStartupDur[id] = startup
		action.OnComplete = func(e *simgrid.Engine, _ *simgrid.Action) {
			res.TaskFinish[id] = e.Now()
			for _, succ := range task.Succs() {
				startRedist(id, succ)
			}
			for _, waiter := range releasedBy[id] {
				arrive(waiter)
			}
		}
		engine.Add(action)
	}

	// Seed: tasks with no prerequisites at all.
	for id := 0; id < n; id++ {
		if waiting[id] == 0 {
			launch(id)
		}
	}

	makespan, err := engine.Run()
	if err != nil {
		return nil, fmt.Errorf("tgrid: %w", err)
	}
	// Every task must have run exactly once.
	for id := 0; id < n; id++ {
		if waiting[id] != 0 {
			return nil, fmt.Errorf("tgrid: task %d never became ready (deadlocked schedule)", id)
		}
	}
	res.Makespan = makespan
	for _, t := range g.Tasks {
		for _, succ := range t.Succs() {
			key := [2]int{t.ID, succ}
			res.Edges = append(res.Edges, key)
			res.RedistStart = append(res.RedistStart, redistStart[key])
			res.RedistFinish = append(res.RedistFinish, redistFinish[key])
			res.RedistOverheadDur = append(res.RedistOverheadDur, redistOverheadDur[key])
		}
	}
	return res, nil
}
