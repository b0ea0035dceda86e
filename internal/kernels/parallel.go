package kernels

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/redist"
)

// Scatter splits an n×n matrix into the column blocks of a 1-D
// distribution, indexed by rank.
func Scatter(m *Matrix, d redist.Dist) []*Matrix {
	if m.Cols != d.N {
		panic(fmt.Sprintf("kernels: scatter %d columns under distribution of %d", m.Cols, d.N))
	}
	out := make([]*Matrix, d.P)
	for r := 0; r < d.P; r++ {
		lo, hi := d.Block(r)
		out[r] = m.ColBlock(lo, hi)
	}
	return out
}

// Gather reassembles column blocks into the full matrix.
func Gather(blocks []*Matrix, d redist.Dist) *Matrix {
	if len(blocks) != d.P {
		panic(fmt.Sprintf("kernels: gather %d blocks under distribution of %d ranks", len(blocks), d.P))
	}
	rows := blocks[0].Rows
	out := NewMatrix(rows, d.N)
	for r := 0; r < d.P; r++ {
		lo, hi := d.Block(r)
		if blocks[r].Cols != hi-lo || blocks[r].Rows != rows {
			panic(fmt.Sprintf("kernels: block %d has shape %dx%d, want %dx%d",
				r, blocks[r].Rows, blocks[r].Cols, rows, hi-lo))
		}
		out.SetColBlock(lo, blocks[r])
	}
	return out
}

// ParMatMul computes this rank's column block of C = A·B with the vanilla
// 1-D ring algorithm: the local A block rotates around the ring for p−1
// steps; at each step the rank accumulates the contribution of the A
// columns it currently holds into its C block. Each step moves n·(n/p)
// elements per rank — the n²/p figure of §IV-1.
//
// aBlock and bBlock are the rank's column blocks of A and B under dist;
// the returned matrix is the rank's block of C.
func ParMatMul(c *mpi.Comm, aBlock, bBlock *Matrix, dist redist.Dist) *Matrix {
	if c.Size() != dist.P {
		panic(fmt.Sprintf("kernels: world size %d but distribution has %d ranks", c.Size(), dist.P))
	}
	n := dist.N
	rank := c.Rank()
	lo, hi := dist.Block(rank)
	if aBlock.Rows != n || bBlock.Rows != n || aBlock.Cols != hi-lo || bBlock.Cols != hi-lo {
		panic("kernels: operand blocks do not match the distribution")
	}
	out := NewMatrix(n, hi-lo)

	cur := aBlock.Clone()
	curOwner := rank
	for step := 0; step < dist.P; step++ {
		alo, ahi := dist.Block(curOwner)
		// C[:, j] += Σ_{k ∈ [alo, ahi)} A[:, k] · B[k, j] for local j.
		for j := 0; j < out.Cols; j++ {
			bj := bBlock.Col(j)
			cj := out.Col(j)
			for k := alo; k < ahi; k++ {
				f := bj[k]
				if f == 0 {
					continue
				}
				ak := cur.Col(k - alo)
				for i := 0; i < n; i++ {
					cj[i] += float64(ak[i] * f)
				}
			}
		}
		if step < dist.P-1 {
			// Rotate: blocks flow to the next rank; uneven trailing block
			// sizes make the payload size vary, exactly like the vanilla
			// implementation.
			data := c.RingShift(1000+step, cur.Data)
			curOwner = (curOwner - 1 + dist.P) % dist.P
			nlo, nhi := dist.Block(curOwner)
			cur = &Matrix{Rows: n, Cols: nhi - nlo, Data: data}
		}
	}
	return out
}

// ParMatAdd computes this rank's column block of C = A + B; the 1-D
// distribution makes it purely local (§IV-1: no communication). repeats
// re-executes the addition, implementing the paper's artificial n/4
// boosting of addition complexity; pass 1 for the plain kernel.
func ParMatAdd(aBlock, bBlock *Matrix, repeats int) *Matrix {
	if repeats < 1 {
		repeats = 1
	}
	var out *Matrix
	for i := 0; i < repeats; i++ {
		out = SeqMatAdd(aBlock, bBlock)
	}
	return out
}

// Reblock converts column blocks from one 1-D distribution to another —
// the data-redistribution component's actual data movement, driven by the
// same overlap plan the virtual backend simulates.
func Reblock(blocks []*Matrix, src, dst redist.Dist) []*Matrix {
	if src.N != dst.N {
		panic(fmt.Sprintf("kernels: reblock between sizes %d and %d", src.N, dst.N))
	}
	if len(blocks) != src.P {
		panic(fmt.Sprintf("kernels: reblock of %d blocks under %d-rank distribution", len(blocks), src.P))
	}
	rows := blocks[0].Rows
	out := make([]*Matrix, dst.P)
	for r := 0; r < dst.P; r++ {
		lo, hi := dst.Block(r)
		out[r] = NewMatrix(rows, hi-lo)
	}
	for sr := 0; sr < src.P; sr++ {
		slo, shi := src.Block(sr)
		for col := slo; col < shi; col++ {
			dr := dst.Owner(col)
			dlo, _ := dst.Block(dr)
			copy(out[dr].Col(col-dlo), blocks[sr].Col(col-slo))
		}
	}
	return out
}

// ParReblock performs the redistribution with real message passing: each of
// the max(src.P, dst.P) ranks of the combined world sends its overlapping
// column ranges via Alltoallv. Ranks beyond a distribution's size
// participate with empty payloads. blocks is indexed by source rank and the
// result by destination rank; only rank 0's return value is meaningful to
// callers of mpi.Run (all ranks compute identical shapes).
func ParReblock(c *mpi.Comm, localBlock *Matrix, src, dst redist.Dist) *Matrix {
	p := c.Size()
	rank := c.Rank()
	rows := src.N

	send := make([][]float64, p)
	if rank < src.P {
		slo, shi := src.Block(rank)
		for dr := 0; dr < dst.P && dr < p; dr++ {
			dlo, dhi := dst.Block(dr)
			olo, ohi := slo, shi
			if dlo > olo {
				olo = dlo
			}
			if dhi < ohi {
				ohi = dhi
			}
			if ohi <= olo {
				continue
			}
			buf := make([]float64, 0, (ohi-olo)*rows)
			for col := olo; col < ohi; col++ {
				buf = append(buf, localBlock.Col(col-slo)...)
			}
			send[dr] = buf
		}
	}
	recv := c.Alltoallv(2000, send)

	if rank >= dst.P {
		return nil
	}
	dlo, dhi := dst.Block(rank)
	out := NewMatrix(rows, dhi-dlo)
	for sr := 0; sr < src.P && sr < p; sr++ {
		payload := recv[sr]
		if len(payload) == 0 {
			continue
		}
		slo, shi := src.Block(sr)
		olo, ohi := slo, shi
		if dlo > olo {
			olo = dlo
		}
		if dhi < ohi {
			ohi = dhi
		}
		if ohi <= olo || len(payload) != (ohi-olo)*rows {
			panic(fmt.Sprintf("kernels: rank %d received %d elements from %d, want %d",
				rank, len(payload), sr, (ohi-olo)*rows))
		}
		for i, col := 0, olo; col < ohi; i, col = i+1, col+1 {
			copy(out.Col(col-dlo), payload[i*rows:(i+1)*rows])
		}
	}
	return out
}
