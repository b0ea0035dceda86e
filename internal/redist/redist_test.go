package redist

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBlocksPartitionColumns(t *testing.T) {
	d, err := NewDist(3000, 16)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	prevHi := 0
	for i := 0; i < d.P; i++ {
		lo, hi := d.Block(i)
		if lo != prevHi {
			t.Errorf("block %d starts at %d, want %d", i, lo, prevHi)
		}
		covered += hi - lo
		prevHi = hi
	}
	if covered != 3000 || prevHi != 3000 {
		t.Errorf("blocks cover %d columns ending at %d, want 3000", covered, prevHi)
	}
}

func TestLastBlockGetsRemainder(t *testing.T) {
	d, _ := NewDist(3000, 16) // 3000/16 = 187 rem 12
	if got := d.BlockSize(0); got != 187 {
		t.Errorf("first block = %d, want 187", got)
	}
	if got := d.BlockSize(15); got != 3000-15*187 {
		t.Errorf("last block = %d, want %d", got, 3000-15*187)
	}
	if d.MaxBlockSize() != 195 {
		t.Errorf("MaxBlockSize = %d, want 195", d.MaxBlockSize())
	}
}

func TestImbalanceVanishesWhenDivisible(t *testing.T) {
	d, _ := NewDist(2000, 8)
	if d.Imbalance() != 0 {
		t.Errorf("Imbalance = %g, want 0", d.Imbalance())
	}
	// The paper's p=16, n=3000 outlier: noticeable trailing imbalance.
	d2, _ := NewDist(3000, 16)
	if d2.Imbalance() < 0.03 {
		t.Errorf("Imbalance(3000,16) = %g, want > 0.03", d2.Imbalance())
	}
}

func TestOwnerConsistentWithBlocks(t *testing.T) {
	d, _ := NewDist(100, 7)
	for c := 0; c < d.N; c++ {
		i := d.Owner(c)
		lo, hi := d.Block(i)
		if c < lo || c >= hi {
			t.Fatalf("Owner(%d) = %d but block is [%d,%d)", c, i, lo, hi)
		}
	}
}

func TestNewDistErrors(t *testing.T) {
	cases := []struct{ n, p int }{{0, 1}, {10, 0}, {10, 11}, {-5, 2}}
	for _, c := range cases {
		if _, err := NewDist(c.n, c.p); err == nil {
			t.Errorf("NewDist(%d,%d) accepted", c.n, c.p)
		}
	}
}

func TestCommMatrixIdentityDistribution(t *testing.T) {
	d, _ := NewDist(2000, 4)
	m, err := CommMatrix(d, d)
	if err != nil {
		t.Fatal(err)
	}
	// Same distribution: everything stays on the diagonal.
	for i := range m {
		for j := range m[i] {
			if i == j {
				want := int64(d.BlockSize(i)) * 2000 * 8
				if m[i][j] != want {
					t.Errorf("m[%d][%d] = %d, want %d", i, j, m[i][j], want)
				}
			} else if m[i][j] != 0 {
				t.Errorf("m[%d][%d] = %d, want 0", i, j, m[i][j])
			}
		}
	}
}

func TestCommMatrixConservesMatrix(t *testing.T) {
	src, _ := NewDist(2000, 5)
	dst, _ := NewDist(2000, 13)
	m, err := CommMatrix(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := TotalBytes(m), int64(2000)*2000*8; got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
	// Row i sums to the source block size; column j to the dest block.
	for i := 0; i < src.P; i++ {
		var row int64
		for j := 0; j < dst.P; j++ {
			row += m[i][j]
		}
		if want := int64(src.BlockSize(i)) * 2000 * 8; row != want {
			t.Errorf("row %d sums to %d, want %d", i, row, want)
		}
	}
	for j := 0; j < dst.P; j++ {
		var col int64
		for i := 0; i < src.P; i++ {
			col += m[i][j]
		}
		if want := int64(dst.BlockSize(j)) * 2000 * 8; col != want {
			t.Errorf("col %d sums to %d, want %d", j, col, want)
		}
	}
}

func TestCommMatrixSizeMismatch(t *testing.T) {
	a, _ := NewDist(100, 2)
	b, _ := NewDist(200, 2)
	if _, err := CommMatrix(a, b); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := Messages(a, b); err == nil {
		t.Fatal("size mismatch accepted by Messages")
	}
}

// TestMessagesAreTheNonzeroCells pins the sparse plan to the dense one,
// exhaustively over small shapes (every remainder pattern, p up to n) and
// over the case study's sizes at every processor-count pair of the cluster.
func TestMessagesAreTheNonzeroCells(t *testing.T) {
	check := func(n, ps, pd int) {
		src, _ := NewDist(n, ps)
		dst, _ := NewDist(n, pd)
		m, err := CommMatrix(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		var want []Message
		for i, row := range m {
			for j, b := range row {
				if b != 0 {
					want = append(want, Message{Src: i, Dst: j, Bytes: b})
				}
			}
		}
		got, err := Messages(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > ps+pd-1 || !slices.Equal(got, want) {
			t.Fatalf("n=%d %d->%d: messages = %v, want %v", n, ps, pd, got, want)
		}
	}
	for n := 1; n <= 12; n++ {
		for ps := 1; ps <= n; ps++ {
			for pd := 1; pd <= n; pd++ {
				check(n, ps, pd)
			}
		}
	}
	for _, n := range []int{2000, 3000} {
		for ps := 1; ps <= 32; ps++ {
			for pd := 1; pd <= 32; pd++ {
				check(n, ps, pd)
			}
		}
	}
}

// Property: for arbitrary (n, pSrc, pDst) the communication matrix conserves
// the whole matrix and rows/columns match block sizes.
func TestCommMatrixConservationQuick(t *testing.T) {
	prop := func(nRaw, psRaw, pdRaw uint16) bool {
		n := 16 + int(nRaw)%512
		ps := 1 + int(psRaw)%32
		pd := 1 + int(pdRaw)%32
		if ps > n || pd > n {
			return true
		}
		src, err1 := NewDist(n, ps)
		dst, err2 := NewDist(n, pd)
		if err1 != nil || err2 != nil {
			return false
		}
		m, err := CommMatrix(src, dst)
		if err != nil {
			return false
		}
		if TotalBytes(m) != int64(n)*int64(n)*8 {
			return false
		}
		for j := 0; j < pd; j++ {
			var col int64
			for i := 0; i < ps; i++ {
				col += m[i][j]
			}
			if col != int64(dst.BlockSize(j))*int64(n)*8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOffNodeBytes(t *testing.T) {
	src, _ := NewDist(100, 2)
	dst, _ := NewDist(100, 2)
	m, _ := CommMatrix(src, dst)
	// Same hosts: all transfers local.
	if got := OffNodeBytes(m, []int{0, 1}, []int{0, 1}); got != 0 {
		t.Errorf("OffNodeBytes same placement = %d, want 0", got)
	}
	// Swapped hosts: everything crosses the network.
	if got := OffNodeBytes(m, []int{0, 1}, []int{1, 0}); got != TotalBytes(m) {
		t.Errorf("OffNodeBytes swapped = %d, want %d", got, TotalBytes(m))
	}
}

func TestProbeMatrix(t *testing.T) {
	m := ProbeMatrix(3, 5)
	if len(m) != 3 || len(m[0]) != 5 {
		t.Fatalf("probe matrix shape %dx%d, want 3x5", len(m), len(m[0]))
	}
	if TotalBytes(m) != 15 {
		t.Errorf("probe total = %d, want 15 (one byte per pair)", TotalBytes(m))
	}
}

func TestFloat64Matrix(t *testing.T) {
	m := [][]int64{{1, 2}, {3, 4}}
	f := Float64Matrix(m)
	if f[0][0] != 1 || f[1][1] != 4 {
		t.Errorf("conversion wrong: %v", f)
	}
}
