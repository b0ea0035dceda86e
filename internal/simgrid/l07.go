package simgrid

import (
	"fmt"

	"repro/internal/platform"
)

// Net maps a platform.Cluster onto engine resources, implementing the star
// topology of the paper's platform specification: per-node CPU, per-node
// private uplink and downlink, and an optional switch backplane.
type Net struct {
	Cluster platform.Cluster
	// resource index layout:
	//   [0, N)    host CPUs
	//   [N, 2N)   uplinks
	//   [2N, 3N)  downlinks
	//   3N        backplane (only if Cluster.BackplaneBandwidth > 0)
	nHosts int
	caps   []float64 // capacity vector, computed once
}

// NewNet validates the cluster and returns its resource mapping.
func NewNet(c platform.Cluster) (*Net, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := &Net{Cluster: c, nHosts: c.Nodes}
	size := 3 * n.nHosts
	if c.BackplaneBandwidth > 0 {
		size++
	}
	n.caps = make([]float64, size)
	for h := 0; h < n.nHosts; h++ {
		n.caps[n.CPU(h)] = c.PowerOf(h)
		n.caps[n.Uplink(h)] = c.LinkBandwidth
		n.caps[n.Downlink(h)] = c.LinkBandwidth
	}
	if c.BackplaneBandwidth > 0 {
		n.caps[n.Backplane()] = c.BackplaneBandwidth
	}
	return n, nil
}

// Capacities returns a copy of the engine capacity vector for the cluster.
func (n *Net) Capacities() []float64 { return append([]float64(nil), n.caps...) }

// NewEngine builds a fresh engine with the cluster's resources.
func (n *Net) NewEngine() *Engine { return NewEngine(n.caps) }

// ResetEngine resets an engine to this net's capacities at time zero,
// without the capacity-vector copy Capacities would make — the
// allocation-free way to point a privately owned engine at a
// re-parameterised net of the same shape.
func (n *Net) ResetEngine(e *Engine) { e.Reset(n.caps) }

// CPU returns the resource index of host h's processor.
func (n *Net) CPU(h int) int { n.check(h); return h }

// Uplink returns the resource index of host h's private uplink.
func (n *Net) Uplink(h int) int { n.check(h); return n.nHosts + h }

// Downlink returns the resource index of host h's private downlink.
func (n *Net) Downlink(h int) int { n.check(h); return 2*n.nHosts + h }

// Backplane returns the resource index of the switch backplane. Only valid
// when the cluster models one.
func (n *Net) Backplane() int { return 3 * n.nHosts }

// HasBackplane reports whether the backplane resource exists.
func (n *Net) HasBackplane() bool { return n.Cluster.BackplaneBandwidth > 0 }

func (n *Net) check(h int) {
	if h < 0 || h >= n.nHosts {
		panic(fmt.Sprintf("simgrid: host %d out of range [0,%d)", h, n.nHosts))
	}
}

// RouteLatency returns the latency of the route between two hosts: zero
// within a host, twice the private-link latency otherwise (source link +
// destination link; the paper models switch and private links with a single
// 100 µs figure).
func (n *Net) RouteLatency(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return 2 * n.Cluster.LinkLatency
}

// Transfer is one point-to-point message of an L07 communication: Bytes sent
// from rank Src to rank Dst of the parallel task's host list. A list of
// transfers in row-major order (ascending Src, then ascending Dst) is the
// sparse form of the dense bytes matrix Ptask takes; a 1-D block
// redistribution has at most pSrc+pDst−1 of them where the matrix has
// (pSrc+pDst)² cells.
type Transfer struct {
	Src, Dst int
	Bytes    float64
}

// Ptask builds an L07 parallel-task action from a computation vector and a
// communication matrix, the exact inputs of SimGrid's Ptask_L07 model:
// comp[i] is the number of flops host hosts[i] executes, bytes[i][j] the
// number of bytes hosts[i] sends to hosts[j]. Either may be nil (a == 0
// redistribution, B == 0 pure computation). The action's latency is the
// maximum route latency over communicating pairs.
func (n *Net) Ptask(name string, hosts []int, comp []float64, bytes [][]float64) *Action {
	a := &Action{Name: name}
	n.FillPtask(a, hosts, comp, bytes)
	return a
}

// FillPtask populates an existing action with the L07 parallel task described
// by comp and bytes (see Ptask), reusing the action's Usage storage. Delay is
// set to the maximum route latency and Work to 1; Name, Tag, Bound and
// OnComplete are left untouched.
func (n *Net) FillPtask(a *Action, hosts []int, comp []float64, bytes [][]float64) {
	checkComp(a, hosts, comp)
	if bytes != nil && len(bytes) != len(hosts) {
		panic(fmt.Sprintf("simgrid: ptask %q: bytes rows %d != hosts %d", a.Name, len(bytes), len(hosts)))
	}
	f := filler{net: n, hosts: hosts, usage: a.Usage[:0]}
	for i := range hosts {
		f.compute(comp, i)
		if bytes == nil {
			continue
		}
		if len(bytes[i]) != len(hosts) {
			panic(fmt.Sprintf("simgrid: ptask %q: bytes row %d has %d cols, want %d",
				a.Name, i, len(bytes[i]), len(hosts)))
		}
		for j, b := range bytes[i] {
			f.transfer(i, j, b)
		}
	}
	a.Usage, a.Delay, a.Work = f.usage, f.latency, 1
}

// FillTransfers is FillPtask over the sparse form of the communication: the
// transfers must be in row-major order with ranks inside the host list. It
// visits exactly the cells FillPtask would charge, in the same order, so the
// resulting usage amounts and delay are bit-identical to filling from the
// equivalent dense matrix — in O(len(hosts) + len(transfers)) instead of
// O(len(hosts)²), and without allocating once the action's Usage has grown.
func (n *Net) FillTransfers(a *Action, hosts []int, comp []float64, transfers []Transfer) {
	checkComp(a, hosts, comp)
	f := filler{net: n, hosts: hosts, usage: a.Usage[:0]}
	k := 0
	for i := range hosts {
		f.compute(comp, i)
		for ; k < len(transfers) && transfers[k].Src == i; k++ {
			t := transfers[k]
			if t.Dst < 0 || t.Dst >= len(hosts) || (k > 0 && transfers[k-1].Src == i && transfers[k-1].Dst >= t.Dst) {
				break // left unconsumed, like a row out of order: reported below
			}
			f.transfer(i, t.Dst, t.Bytes)
		}
	}
	if k != len(transfers) {
		panic(fmt.Sprintf("simgrid: ptask %q: transfer %d (%d->%d) out of range or out of row-major order",
			a.Name, k, transfers[k].Src, transfers[k].Dst))
	}
	a.Usage, a.Delay, a.Work = f.usage, f.latency, 1
}

func checkComp(a *Action, hosts []int, comp []float64) {
	if comp != nil && len(comp) != len(hosts) {
		panic(fmt.Sprintf("simgrid: ptask %q: comp length %d != hosts %d", a.Name, len(comp), len(hosts)))
	}
}

// filler accumulates one parallel task's consumption into a usage vector
// kept sorted by resource. Both fill forms charge through it in the same
// order — rank by rank: the rank's flops, then its row of transfers in
// column order, each to uplink, downlink, backplane — so every per-resource
// sum adds the same terms in the same order whichever form described them.
type filler struct {
	net     *Net
	hosts   []int
	usage   []Use
	latency float64
}

func (f *filler) compute(comp []float64, i int) {
	if comp != nil && comp[i] > 0 {
		f.add(f.net.CPU(f.hosts[i]), comp[i])
	}
}

func (f *filler) transfer(i, j int, b float64) {
	if b <= 0 || i == j {
		return // intra-host transfers are free, as in SimGrid clusters
	}
	n, src, dst := f.net, f.hosts[i], f.hosts[j]
	if src == dst {
		return
	}
	f.add(n.Uplink(src), b)
	f.add(n.Downlink(dst), b)
	if n.HasBackplane() {
		f.add(n.Backplane(), b)
	}
	if l := n.RouteLatency(src, dst); l > f.latency {
		f.latency = l
	}
}

// add accumulates x onto resource r, inserting the entry at its sorted
// position on first use.
func (f *filler) add(r int, x float64) {
	u := f.usage
	lo, hi := 0, len(u)
	if hi > 0 && u[hi-1].Res <= r {
		// The common cases skip the search: the last entry again (with a
		// backplane, every transfer charges it) or a resource past it.
		if lo = hi - 1; u[lo].Res < r {
			lo = hi
		}
		hi = lo
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u[mid].Res < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(u) && u[lo].Res == r {
		u[lo].Amount += x
		return
	}
	u = append(u, Use{})
	copy(u[lo+1:], u[lo:])
	u[lo] = Use{Res: r, Amount: x}
	f.usage = u
}

// Fixed builds an action that simply lasts the given duration without
// consuming shared resources; the profile-based and empirical simulators use
// it for measured task execution times and overheads.
func Fixed(name string, duration float64) *Action {
	if duration < 0 {
		panic(fmt.Sprintf("simgrid: fixed action %q has negative duration %g", name, duration))
	}
	return &Action{Name: name, Delay: duration}
}

// LoneActionTime predicts how long an action would take if it ran alone on
// the platform: delay + max over resources of amount/capacity. Useful for
// analytic expected-time computations and tests.
func (n *Net) LoneActionTime(a *Action) float64 {
	caps := n.caps
	t := 0.0
	for _, u := range a.Usage {
		if d := u.Amount / caps[u.Res] * a.Work; d > t {
			t = d
		}
	}
	return a.Delay + t
}
