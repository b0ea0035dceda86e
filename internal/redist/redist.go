// Package redist computes data-redistribution plans between 1-D block
// column distributions, the distribution scheme of all parallel tasks in the
// case study. Given the source distribution (matrix held by the p(src)
// processors of the producing task) and the destination distribution, the
// overlap of column intervals determines exactly how many bytes each source
// processor must send to each destination processor — the communication
// matrix handed to the Ptask_L07 redistribution action (paper §IV-2).
//
// TGrid performs this redistribution transparently; its subnet-manager
// registration overhead is modelled separately (internal/cluster,
// internal/perfmodel).
package redist

import "fmt"

// Dist is a 1-D block distribution of the n columns of an n×n matrix over p
// processors: processor i owns columns [i·b, (i+1)·b) with b = n/p (integer
// division), and the last processor additionally owns the n mod p remainder
// columns — the paper's "vanilla" implementation whose trailing imbalance
// causes the p=16, n=3000 outlier of Figure 6.
type Dist struct {
	// N is the matrix dimension (number of columns).
	N int
	// P is the number of processors.
	P int
}

// NewDist validates and returns a distribution.
func NewDist(n, p int) (Dist, error) {
	if n <= 0 {
		return Dist{}, fmt.Errorf("redist: matrix size must be positive, got %d", n)
	}
	if p <= 0 || p > n {
		return Dist{}, fmt.Errorf("redist: processor count must be in [1,%d], got %d", n, p)
	}
	return Dist{N: n, P: p}, nil
}

// Block returns the half-open column interval [lo, hi) owned by processor i.
func (d Dist) Block(i int) (lo, hi int) {
	if i < 0 || i >= d.P {
		panic(fmt.Sprintf("redist: rank %d out of range [0,%d)", i, d.P))
	}
	b := d.N / d.P
	lo = i * b
	hi = lo + b
	if i == d.P-1 {
		hi = d.N
	}
	return lo, hi
}

// BlockSize returns the number of columns owned by processor i.
func (d Dist) BlockSize(i int) int {
	lo, hi := d.Block(i)
	return hi - lo
}

// Owner returns the processor owning column c.
func (d Dist) Owner(c int) int {
	if c < 0 || c >= d.N {
		panic(fmt.Sprintf("redist: column %d out of range [0,%d)", c, d.N))
	}
	b := d.N / d.P
	i := c / b
	if i >= d.P {
		i = d.P - 1
	}
	return i
}

// MaxBlockSize returns the largest block, which determines the load of the
// slowest processor in a 1-D kernel.
func (d Dist) MaxBlockSize() int {
	b := d.N / d.P
	last := d.N - (d.P-1)*b
	if last > b {
		return last
	}
	return b
}

// Imbalance returns MaxBlockSize / (N/P) − 1, the fractional extra load of
// the most loaded processor relative to a perfect split.
func (d Dist) Imbalance() float64 {
	ideal := float64(d.N) / float64(d.P)
	return float64(d.MaxBlockSize())/ideal - 1
}

// overlap returns the length of the intersection of [a0,a1) and [b0,b1).
func overlap(a0, a1, b0, b1 int) int {
	lo, hi := a0, a1
	if b0 > lo {
		lo = b0
	}
	if b1 < hi {
		hi = b1
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// CommMatrix returns the redistribution byte matrix from src to dst:
// element [i][j] is the number of bytes processor i of the source
// distribution sends to processor j of the destination distribution, i.e.
// 8·N·(columns of overlap) for float64 elements. Both distributions must
// describe the same matrix size.
func CommMatrix(src, dst Dist) ([][]int64, error) {
	if src.N != dst.N {
		return nil, fmt.Errorf("redist: distribution sizes differ: %d vs %d", src.N, dst.N)
	}
	out := make([][]int64, src.P)
	for i := range out {
		out[i] = make([]int64, dst.P)
		slo, shi := src.Block(i)
		for j := 0; j < dst.P; j++ {
			dlo, dhi := dst.Block(j)
			cols := overlap(slo, shi, dlo, dhi)
			out[i][j] = int64(cols) * int64(src.N) * 8
		}
	}
	return out, nil
}

// Message is one nonzero cell of a communication matrix: source processor
// Src sends Bytes to destination processor Dst.
type Message struct {
	Src, Dst int
	Bytes    int64
}

// Messages returns the nonzero cells of CommMatrix(src, dst) in row-major
// order without building the matrix. Blocks are contiguous column intervals,
// so source processor i overlaps only the destination processors owning its
// first through last column: at most src.P+dst.P−1 messages in total, found
// in that many steps.
func Messages(src, dst Dist) ([]Message, error) {
	if src.N != dst.N {
		return nil, fmt.Errorf("redist: distribution sizes differ: %d vs %d", src.N, dst.N)
	}
	out := make([]Message, 0, src.P+dst.P-1)
	for i := 0; i < src.P; i++ {
		slo, shi := src.Block(i)
		for j := dst.Owner(slo); j <= dst.Owner(shi-1); j++ {
			dlo, dhi := dst.Block(j)
			out = append(out, Message{Src: i, Dst: j, Bytes: int64(overlap(slo, shi, dlo, dhi)) * int64(src.N) * 8})
		}
	}
	return out, nil
}

// TotalBytes sums a communication matrix.
func TotalBytes(m [][]int64) int64 {
	var total int64
	for _, row := range m {
		for _, b := range row {
			total += b
		}
	}
	return total
}

// OffNodeBytes sums the bytes that actually cross the network when source
// processor i runs on host srcHosts[i] and destination processor j on host
// dstHosts[j]: same-host transfers are local copies.
func OffNodeBytes(m [][]int64, srcHosts, dstHosts []int) int64 {
	var total int64
	for i, row := range m {
		for j, b := range row {
			if srcHosts[i] != dstHosts[j] {
				total += b
			}
		}
	}
	return total
}

// Float64Matrix converts a byte matrix to float64 for the simulation kernel.
func Float64Matrix(m [][]int64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = make([]float64, len(row))
		for j, b := range row {
			out[i][j] = float64(b)
		}
	}
	return out
}

// ProbeMatrix returns the communication matrix of the paper's overhead probe
// (§VI-C): a "mostly empty matrix" redistribution in which every source
// processor sends at least one byte to every destination processor, so the
// maximum number of protocol messages flows while the data volume stays
// negligible.
func ProbeMatrix(pSrc, pDst int) [][]int64 {
	out := make([][]int64, pSrc)
	for i := range out {
		out[i] = make([]int64, pDst)
		for j := range out[i] {
			out[i][j] = 1
		}
	}
	return out
}
