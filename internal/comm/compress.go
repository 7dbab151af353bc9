package comm

import (
	"fmt"
	"math/rand"
)

// Compressed is the paper's n x d matrix CCOM (§4.2): row i holds the
// destinations of Pi's outgoing messages packed into the first few
// columns, with the per-row pointer vector prt marking the last active
// column. The randomized schedulers scan CCOM instead of COM, cutting
// the per-permutation work from O(n^2) to O(dn).
//
// The compressing procedure also shuffles the active entries of each
// row: without the shuffle the destinations sit in ascending order and
// the first several phases suffer node contention among processors
// with small IDs (paper §4.2). The shuffle is what keeps the expected
// number of collisions bounded. Load applies it given an rng; the
// ablation benchmark passes nil to disable it.
type Compressed struct {
	n     int
	width int    // d: max send degree, the row capacity
	slots []slot // row-major n*width; row i's live entries lead its width slots
	prt   []int  // prt[i]: index of last active column in row i, -1 if empty
	// partition scratch, reused across PartitionRows calls so the
	// pairwise-locating pass of RS_NL allocates nothing when a
	// Compressed is reused (sched.Core keeps one per core).
	buf []slot
}

// slot is one CCOM entry: a message of the loaded matrix.
type slot struct {
	dest int32
	at   int32 // the message's Matrix.Index position
	size int64
}

// Load rebuilds the CCOM in place from m, reusing the row storage when
// its capacity allows — the steady-state path of a reusable scheduler
// core re-loads the same backing arrays for every request. Each row is
// a copy of m's sparse row; a non-nil rng then shuffles every row in
// turn (a fixed stream, so reuse cannot change a schedule), and nil
// leaves rows in ascending destination order.
func (c *Compressed) Load(m *Matrix, rng *rand.Rand) {
	n := m.N()
	width := 1 // keep row storage non-degenerate for empty matrices
	for i := 0; i < n; i++ {
		width = max(width, m.SendDegree(i))
	}
	c.n, c.width = n, width
	c.slots = grow(c.slots, n*width)
	c.prt = grow(c.prt, n)
	for i := 0; i < n; i++ {
		dst, bytes := m.Row(i)
		row := c.slots[i*width : i*width+len(dst)]
		for z, j := range dst {
			row[z] = slot{dest: j, at: int32(m.start(i) + z), size: bytes[z]}
		}
		c.prt[i] = len(dst) - 1
		if rng != nil {
			rng.Shuffle(len(row), func(a, b int) { row[a], row[b] = row[b], row[a] })
		}
	}
}

// N returns the number of processors.
func (c *Compressed) N() int { return c.n }

// Width returns d, the row capacity (maximum send degree at build time).
func (c *Compressed) Width() int { return c.width }

// Remaining returns the number of unscheduled messages in row i.
func (c *Compressed) Remaining(i int) int { return c.prt[i] + 1 }

// Empty reports whether every row has been fully drained.
func (c *Compressed) Empty() bool {
	for i := 0; i < c.n; i++ {
		if c.prt[i] >= 0 {
			return false
		}
	}
	return true
}

// TotalRemaining returns the number of unscheduled messages overall.
func (c *Compressed) TotalRemaining() int {
	total := 0
	for i := 0; i < c.n; i++ {
		total += c.prt[i] + 1
	}
	return total
}

// At returns the destination in row i, column z, or -1 if inactive.
func (c *Compressed) At(i, z int) int {
	if z > c.prt[i] {
		return -1
	}
	return int(c.slots[i*c.width+z].dest)
}

// SizeAt returns the message size in row i, column z.
func (c *Compressed) SizeAt(i, z int) int64 {
	if z > c.prt[i] {
		return 0
	}
	return c.slots[i*c.width+z].size
}

// Index returns the Matrix.Index position, in the loaded matrix, of
// the message in row i, column z, or -1 if the slot is inactive — the
// key of per-message scratch indexed by position.
func (c *Compressed) Index(i, z int) int {
	if z > c.prt[i] {
		return -1
	}
	return int(c.slots[i*c.width+z].at)
}

// Remove deletes the entry at (i, z) exactly as the paper's inner loop
// does: the last active entry of the row is moved into slot z and prt
// is decremented. It returns the removed destination and size.
func (c *Compressed) Remove(i, z int) (dest int, bytes int64) {
	if z > c.prt[i] || z < 0 {
		panic(fmt.Sprintf("comm: Remove(%d,%d) beyond prt %d", i, z, c.prt[i]))
	}
	row := c.slots[i*c.width:]
	removed, last := row[z], c.prt[i]
	row[z] = row[last]
	c.prt[i] = last - 1
	return int(removed.dest), removed.size
}

// PartitionRows stable-partitions the active entries of every row so
// that the entries for which pred(i, z) holds come first, preserving
// the relative order within each group. pred is asked about row i,
// column z in the row's order before the partition, so it can read
// the entry through At, SizeAt or Index. The RS_NL scheduler uses it
// to move pairwise-exchange candidates to the front of each row after
// the randomizing shuffle.
func (c *Compressed) PartitionRows(pred func(i, z int) bool) {
	if cap(c.buf) < c.width {
		c.buf = make([]slot, 0, c.width)
	}
	buf := c.buf
	for i := 0; i < c.n; i++ {
		row := c.slots[i*c.width : i*c.width+c.prt[i]+1]
		buf = buf[:0]
		for z, e := range row {
			if pred(i, z) {
				buf = append(buf, e)
			}
		}
		for z, e := range row {
			if !pred(i, z) {
				buf = append(buf, e)
			}
		}
		copy(row, buf)
	}
}

// RowDests returns the active destinations of row i (a copy, for tests
// and trace output).
func (c *Compressed) RowDests(i int) []int {
	out := make([]int, 0, c.prt[i]+1)
	for z := 0; z <= c.prt[i]; z++ {
		out = append(out, c.At(i, z))
	}
	return out
}
