package experiments

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simgrid"
	"repro/internal/tgrid"
)

// This file holds the system's one measurement (§V–§VII) — schedule a DAG
// with each of a list of algorithms under a model, simulate the schedule,
// execute it on the emulated cluster — and the frame codec every study cell
// travels in. The studies here, the campaign engine's grid cells and the arrival
// engine's jobs all score through Pass.Score.

// A Pass is what the scoring cell runs under: the emulated environment its
// sessions measure on, the simulated network, and the model schedules are
// built and simulated with, on the environment's cluster.
type Pass struct {
	em     *cluster.Emulator
	net    *simgrid.Net
	model  perfmodel.Model
	noise  int64 // the noise seed cell sessions derive from
	trials int   // emulated runs averaged per measured makespan

	cluster platform.Cluster
	cost    dag.CostFunc
	comm    dag.CommFunc
	timing  tgrid.Timing
}

// NewPass is the pass of model on em's cluster: schedules are built with
// the model's cost and communication estimates, simulated on net under the
// model, and measured as the mean of trials emulated runs on sessions seeded
// from noise.
func NewPass(em *cluster.Emulator, net *simgrid.Net, model perfmodel.Model, noise int64, trials int) Pass {
	c := em.Hidden.Cluster
	return Pass{em: em, net: net, model: model, noise: noise, trials: trials,
		cluster: c, cost: perfmodel.CostFunc(model), comm: perfmodel.CommFunc(model, c),
		timing: tgrid.ModelTiming{Model: model}}
}

// Session is the private measurement stream of cell i of the named study.
func (p Pass) Session(study string, i int) *cluster.Session {
	return p.em.Session(CellSeed(p.noise, study, i))
}

// bind returns a pooled scratch bound to g under the pass's model, so every
// algorithm built on it shares its cost memo and per-graph analyses. Release
// it by a plain call once the last schedule is consumed, not a defer: a
// scratch held at an error or a panic is dropped, never pooled.
func (p Pass) bind(g *dag.Graph) *sched.Scratch {
	sc := sched.AcquireScratch()
	sc.Bind(g, p.cluster.Nodes, p.cost)
	return sc
}

// build schedules the bound DAG with one algorithm; the schedule is valid
// until the scratch's next build.
func (p Pass) build(sc *sched.Scratch, algo sched.Algorithm) (*sched.Schedule, error) {
	return sc.BuildOn(algo, p.cluster, p.comm)
}

// Score is the scoring cell: it pushes one DAG through the pipeline under
// the pass with each of algos, writing algorithm a's simulated makespan to
// sim[a] and the makespan measured on sess to exp[a]. When keep is not nil,
// keep[a] receives algorithm a's schedule, detached from the scratch and
// labelled with the model's name.
func (p Pass) Score(g *dag.Graph, algos []sched.Algorithm, sess *cluster.Session, sim, exp []float64, keep []*sched.Schedule) error {
	sc := p.bind(g)
	for ai, algo := range algos {
		s, err := p.build(sc, algo)
		if err == nil {
			sim[ai], err = tgrid.Makespan(p.net, s, p.timing)
		}
		if err == nil {
			exp[ai], err = sess.MeasureMakespan(s, p.trials)
		}
		if err != nil {
			return fmt.Errorf("experiments: %s/%s on %s: %w", p.model.Name(), algo.Name(), g.Name, err)
		}
		if keep != nil {
			keep[ai] = s.Clone()
			keep[ai].Model = p.model.Name()
		}
	}
	sched.ReleaseScratch(sc)
	return nil
}

// scored is one DAG's makespans in ComparedAlgorithms order: simulated under
// the model, then measured on the emulated cluster.
type scored struct{ sim, exp [2]float64 }

// score is the scoring cell of the case study's two algorithms.
func (p Pass) score(g *dag.Graph, sess *cluster.Session) (scored, error) {
	var out scored
	err := p.Score(g, ComparedAlgorithms(), sess, out.sim[:], out.exp[:], nil)
	return out, err
}

// floats is the scored DAG as a cell's float64s: simulated, then measured.
func (s scored) floats() []float64 {
	return []float64{s.sim[hcpa], s.sim[mcpa], s.exp[hcpa], s.exp[mcpa]}
}

func scoredOf(xs []float64) scored {
	return scored{sim: [2]float64{xs[0], xs[1]}, exp: [2]float64{xs[2], xs[3]}}
}

// encodeFloats is the study frame codec: a cell's float64s as little-endian
// IEEE-754 bits, so a frame decodes to the very bits the cell computed, NaN
// and infinities included.
func encodeFloats(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// decodeFloats reads a frame of n float64s back.
func decodeFloats(frame []byte, n int) ([]float64, error) {
	if len(frame) != 8*n {
		return nil, fmt.Errorf("experiments: frame of %d bytes, want %d float64s", len(frame), n)
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(frame[8*i:]))
	}
	return xs, nil
}
