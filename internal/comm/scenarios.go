package comm

import (
	"fmt"
	"math/rand"
	"sort"
)

// This file holds the scenario generators behind the non-classic
// workload specs (see internal/workload): permutation traffic,
// matrix-transpose exchange, 3D stencil halos, and sparse
// matrix-vector gather patterns. Like patterns.go, every generator has
// an allocating form and an Into form that regenerates into a reused
// matrix.

// Permutation returns a random fixed-point-free permutation pattern:
// every processor sends one message and receives one message. Density
// 1 — the lightest workload a scheduler can face, and the base case of
// the paper's "d partial permutations" decomposition argument.
func Permutation(n int, bytes int64, rng *rand.Rand) (*Matrix, error) {
	return Generate(n, func(m *Matrix) error { return PermutationInto(m, bytes, rng) })
}

// PermutationInto is Permutation regenerating into m. A uniform random
// permutation is drawn and fixed points are repaired by swapping with
// the successor position, which never reintroduces one.
func PermutationInto(m *Matrix, bytes int64, rng *rand.Rand) error {
	n := m.N()
	if err := checkPatternArgs(n, 1, bytes); err != nil {
		return err
	}
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		if perm[i] != i {
			continue
		}
		j := (i + 1) % n
		// perm[j] != i always: i is already taken by position i.
		perm[i], perm[j] = perm[j], perm[i]
	}
	m.Zero()
	for i, dst := range perm {
		m.Set(i, dst, bytes)
	}
	return nil
}

// Transpose returns the matrix-transpose exchange on a k x k processor
// grid (n = k^2): processor (r, c) sends to (c, r), diagonal
// processors stay silent. The canonical "corner turn" phase of 2D FFTs
// and out-of-core transposes; density 1, deterministic.
func Transpose(n int, bytes int64) (*Matrix, error) {
	return Generate(n, func(m *Matrix) error { return TransposeInto(m, bytes) })
}

// TransposeInto is Transpose regenerating into m.
func TransposeInto(m *Matrix, bytes int64) error {
	n := m.N()
	if err := checkPatternArgs(n, 1, bytes); err != nil {
		return err
	}
	k := isqrt(n)
	if k*k != n || k < 2 {
		return fmt.Errorf("comm: Transpose needs a square processor count >= 4, got %d", n)
	}
	m.Zero()
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			if r != c {
				m.Set(r*k+c, c*k+r, bytes)
			}
		}
	}
	return nil
}

// Stencil3D returns the processor-level halo exchange of a 7-point
// stencil sweep over an x*y*z element grid with periodic boundaries:
// elements are strip-partitioned across the n processors in id order,
// every element needs its six face neighbors, and each cross-boundary
// dependency adds bytesPerElem to the owning pair. The 3D analog of
// the irregular-mesh halo workload; deterministic.
func Stencil3D(n, x, y, z int, bytesPerElem int64) (*Matrix, error) {
	return Generate(n, func(m *Matrix) error { return Stencil3DInto(m, x, y, z, bytesPerElem) })
}

// Stencil3DInto is Stencil3D regenerating into m.
func Stencil3DInto(m *Matrix, x, y, z int, bytesPerElem int64) error {
	n := m.N()
	if n < 2 {
		return fmt.Errorf("comm: need at least 2 processors, got %d", n)
	}
	if x < 1 || y < 1 || z < 1 {
		return fmt.Errorf("comm: stencil grid %dx%dx%d needs positive extents", x, y, z)
	}
	total := x * y * z
	if total < n {
		return fmt.Errorf("comm: stencil grid has %d elements for %d processors; need at least one per processor", total, n)
	}
	if bytesPerElem <= 0 {
		return fmt.Errorf("comm: bytesPerElem %d must be positive", bytesPerElem)
	}
	b := newBuilder(m)
	id := func(ix, iy, iz int) int { return (ix*y+iy)*z + iz }
	owner := func(u int) int { return u * n / total }
	for ix := 0; ix < x; ix++ {
		for iy := 0; iy < y; iy++ {
			for iz := 0; iz < z; iz++ {
				u := id(ix, iy, iz)
				p := owner(u)
				neighbors := [6]int{
					id((ix+1)%x, iy, iz), id((ix+x-1)%x, iy, iz),
					id(ix, (iy+1)%y, iz), id(ix, (iy+y-1)%y, iz),
					id(ix, iy, (iz+1)%z), id(ix, iy, (iz+z-1)%z),
				}
				for _, v := range neighbors {
					// u's value is needed by v's sweep: owner(u) sends to
					// owner(v), exactly the HaloFromPartition convention.
					if q := owner(v); q != p {
						b.put(p, q, bytesPerElem)
					}
				}
			}
		}
	}
	b.done(true)
	return nil
}

// SpMVPowerLaw returns the gather exchange of a distributed sparse
// matrix-vector multiply with power-law column popularity (the
// degree-skewed structure of web and social matrices): 32*n rows are
// block-distributed, each row references nnzPerRow columns drawn with
// probability proportional to 1/(j+1), and every off-block vector
// entry a processor needs is fetched once, adding bytesPerEntry from
// its owner. Hot columns make hot processors — the skewed receive-side
// load the paper's randomized schedulers are built for.
func SpMVPowerLaw(n, nnzPerRow int, bytesPerEntry int64, rng *rand.Rand) (*Matrix, error) {
	return Generate(n, func(m *Matrix) error { return SpMVPowerLawInto(m, nnzPerRow, bytesPerEntry, rng) })
}

// SpMVPowerLawInto is SpMVPowerLaw regenerating into m.
func SpMVPowerLawInto(m *Matrix, nnzPerRow int, bytesPerEntry int64, rng *rand.Rand) error {
	n := m.N()
	if n < 2 {
		return fmt.Errorf("comm: need at least 2 processors, got %d", n)
	}
	if nnzPerRow < 1 {
		return fmt.Errorf("comm: nnzPerRow %d must be positive", nnzPerRow)
	}
	if bytesPerEntry <= 0 {
		return fmt.Errorf("comm: bytesPerEntry %d must be positive", bytesPerEntry)
	}
	rows := 32 * n
	// Cumulative 1/(j+1) weights; a binary search per draw keeps the
	// whole build O(rows * nnz * log rows).
	cum := make([]float64, rows)
	acc := 0.0
	for j := range cum {
		acc += 1.0 / float64(j+1)
		cum[j] = acc
	}
	owner := func(row int) int { return row * n / rows }
	// fetched[col] = p+1 once processor p has fetched vector entry col;
	// p only grows with row, so one stamp per column dedupes.
	fetched := make([]int32, rows)
	b := newBuilder(m)
	for row := 0; row < rows; row++ {
		p := owner(row)
		for k := 0; k < nnzPerRow; k++ {
			col := sort.SearchFloat64s(cum, rng.Float64()*acc)
			if col >= rows {
				col = rows - 1
			}
			q := owner(col)
			if q == p || fetched[col] == int32(p+1) {
				continue // local, or fetched once per processor already
			}
			fetched[col] = int32(p + 1)
			b.put(q, p, bytesPerEntry)
		}
	}
	b.done(true)
	return nil
}

// isqrt returns the integer square root of n.
func isqrt(n int) int {
	if n < 0 {
		return 0
	}
	k := 0
	for (k+1)*(k+1) <= n {
		k++
	}
	return k
}
