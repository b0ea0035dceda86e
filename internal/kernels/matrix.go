// Package kernels implements the case study's computational kernels — dense
// matrix addition and multiplication with 1-D column-block distributions —
// both sequentially and in parallel over the internal/mpi substrate, the
// role the Java/MPIJava implementations play in the paper (§II-B). The
// parallel multiplication is the "vanilla" 1-D algorithm the paper uses:
// each of the p ranks owns n/p columns (remainder on the last rank) and the
// B blocks rotate around a ring for p steps.
package kernels

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense column-major matrix: element (i, j) lives at
// Data[j*Rows+i], so a column block is a contiguous slice — the layout the
// 1-D distribution and the redistribution component move around.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("kernels: matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// RandomMatrix fills an n×n matrix with deterministic pseudo-random values.
func RandomMatrix(n int, seed int64) *Matrix {
	m := NewMatrix(n, n)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = float64(2*rng.Float64()) - 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[j*m.Rows+i] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[j*m.Rows+i] = v }

// Col returns column j as a contiguous slice (aliasing the matrix).
func (m *Matrix) Col(j int) []float64 { return m.Data[j*m.Rows : (j+1)*m.Rows] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// ColBlock returns a copy of columns [lo, hi) as a Rows×(hi−lo) matrix.
func (m *Matrix) ColBlock(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("kernels: column block [%d,%d) of %d columns", lo, hi, m.Cols))
	}
	out := NewMatrix(m.Rows, hi-lo)
	copy(out.Data, m.Data[lo*m.Rows:hi*m.Rows])
	return out
}

// SetColBlock copies src into columns [lo, lo+src.Cols).
func (m *Matrix) SetColBlock(lo int, src *Matrix) {
	if src.Rows != m.Rows || lo+src.Cols > m.Cols {
		panic("kernels: column block does not fit")
	}
	copy(m.Data[lo*m.Rows:(lo+src.Cols)*m.Rows], src.Data)
}

// Equal reports element-wise equality within tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// FrobeniusNorm returns the Frobenius norm, a cheap integrity checksum.
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// SeqMatMul computes C = A·B sequentially (reference implementation).
func SeqMatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("kernels: matmul shape %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		bj := b.Col(j)
		cj := c.Col(j)
		for k := 0; k < a.Cols; k++ {
			ak := a.Col(k)
			f := bj[k]
			if f == 0 {
				continue
			}
			for i := 0; i < a.Rows; i++ {
				cj[i] += float64(ak[i] * f)
			}
		}
	}
	return c
}

// SeqMatAdd computes C = A + B sequentially.
func SeqMatAdd(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("kernels: matadd shape %dx%d + %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, a.Cols)
	for i := range c.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
	return c
}
