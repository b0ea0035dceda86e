package kernels

// SeqMatMulBlocked computes C = A·B with cache-oblivious loop tiling. The
// paper attributes its p = 8 outlier to "memory hierarchy effects, which
// are notoriously difficult to model" — this kernel is the classic
// counter-measure, and the BenchmarkSeqMatMulBlocked/BenchmarkSeqMatMul
// pair in the root bench harness shows the effect tiling is fighting.
func SeqMatMulBlocked(a, b *Matrix, tile int) *Matrix {
	if a.Cols != b.Rows {
		panic("kernels: blocked matmul shape mismatch")
	}
	if tile < 1 {
		tile = 64
	}
	c := NewMatrix(a.Rows, b.Cols)
	n, m, k := a.Rows, b.Cols, a.Cols
	for jj := 0; jj < m; jj += tile {
		jmax := min(jj+tile, m)
		for kk := 0; kk < k; kk += tile {
			kmax := min(kk+tile, k)
			for ii := 0; ii < n; ii += tile {
				imax := min(ii+tile, n)
				for j := jj; j < jmax; j++ {
					bj := b.Col(j)
					cj := c.Col(j)
					for kx := kk; kx < kmax; kx++ {
						f := bj[kx]
						if f == 0 {
							continue
						}
						ak := a.Col(kx)
						for i := ii; i < imax; i++ {
							cj[i] += float64(ak[i] * f)
						}
					}
				}
			}
		}
	}
	return c
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Transpose returns the matrix transpose.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := 0; i < m.Rows; i++ {
			out.Set(j, i, col[i])
		}
	}
	return out
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}
