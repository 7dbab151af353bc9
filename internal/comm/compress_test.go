package comm

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// load builds a CCOM from m through Load, shuffling with rng when it
// is non-nil.
func load(m *Matrix, rng *rand.Rand) *Compressed {
	c := &Compressed{}
	c.Load(m, rng)
	return c
}

func TestCompressedPreservesRowMultisets(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, err := UniformRandom(64, 12, 512, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := load(m, rng)
	if c.N() != 64 {
		t.Fatalf("N = %d", c.N())
	}
	if c.Width() != 12 {
		t.Fatalf("Width = %d, want 12", c.Width())
	}
	for i := 0; i < 64; i++ {
		want := make([]int, 0, 12)
		for _, msg := range m.SendVector(i) {
			want = append(want, msg.Dst)
		}
		got := c.RowDests(i)
		sort.Ints(want)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("row %d: %d dests, want %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("row %d: dests %v, want %v", i, got, want)
			}
		}
	}
}

func TestCompressedOrderedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := UniformRandom(32, 6, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := load(m, nil)
	for i := 0; i < 32; i++ {
		row := c.RowDests(i)
		if !sort.IntsAreSorted(row) {
			t.Fatalf("row %d not ascending: %v", i, row)
		}
	}
}

func TestCompressedRemoveSemantics(t *testing.T) {
	m := MustNew(4)
	m.Set(0, 1, 10)
	m.Set(0, 2, 20)
	m.Set(0, 3, 30)
	c := load(m, nil)
	if c.Remaining(0) != 3 {
		t.Fatalf("Remaining = %d", c.Remaining(0))
	}
	// Remove middle entry: last entry (3) must slide into its slot.
	dest, bytes := c.Remove(0, 1)
	if dest != 2 || bytes != 20 {
		t.Fatalf("Remove returned (%d,%d)", dest, bytes)
	}
	if c.Remaining(0) != 2 {
		t.Fatalf("Remaining after remove = %d", c.Remaining(0))
	}
	if c.At(0, 1) != 3 {
		t.Fatalf("slot 1 should hold moved entry 3, got %d", c.At(0, 1))
	}
	if c.SizeAt(0, 1) != 30 {
		t.Fatalf("slot 1 size should be 30, got %d", c.SizeAt(0, 1))
	}
	// Beyond-prt access returns inactive.
	if c.At(0, 2) != -1 {
		t.Fatalf("slot 2 should be inactive, got %d", c.At(0, 2))
	}
	if c.SizeAt(0, 2) != 0 {
		t.Fatal("inactive slot size should be 0")
	}
}

func TestCompressedRemovePanicsOutOfRange(t *testing.T) {
	m := MustNew(4)
	m.Set(0, 1, 10)
	c := load(m, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Remove beyond prt did not panic")
		}
	}()
	c.Remove(0, 5)
}

func TestCompressedDrainToEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, err := UniformRandom(16, 4, 128, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := load(m, rng)
	if c.Empty() {
		t.Fatal("fresh CCOM should not be empty")
	}
	total := c.TotalRemaining()
	if total != 16*4 {
		t.Fatalf("TotalRemaining = %d, want 64", total)
	}
	removed := 0
	for i := 0; i < 16; i++ {
		for c.Remaining(i) > 0 {
			c.Remove(i, 0)
			removed++
		}
	}
	if removed != total {
		t.Fatalf("removed %d, want %d", removed, total)
	}
	if !c.Empty() {
		t.Fatal("drained CCOM should be empty")
	}
	if c.TotalRemaining() != 0 {
		t.Fatal("TotalRemaining should be 0")
	}
}

func TestCompressedEmptyMatrix(t *testing.T) {
	m := MustNew(8)
	c := load(m, rand.New(rand.NewSource(1)))
	if !c.Empty() {
		t.Fatal("empty matrix should compress to empty CCOM")
	}
	if c.Width() != 1 {
		t.Fatalf("degenerate width = %d, want 1", c.Width())
	}
	if c.Remaining(0) != 0 {
		t.Fatal("empty row should have 0 remaining")
	}
}

// Property: removing all entries of a shuffled CCOM yields exactly the
// multiset of (dest, size) pairs of the source matrix row.
func TestCompressedDrainMatchesMatrix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := UniformRandom(16, 5, 256, rng)
		if err != nil {
			return false
		}
		c := load(m, rng)
		for i := 0; i < 16; i++ {
			got := map[int]int64{}
			for c.Remaining(i) > 0 {
				d, b := c.Remove(i, rng.Intn(c.Remaining(i)))
				got[d] = b
			}
			for _, msg := range m.SendVector(i) {
				if got[msg.Dst] != msg.Bytes {
					return false
				}
				delete(got, msg.Dst)
			}
			if len(got) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPartitionRows(t *testing.T) {
	m := MustNew(8)
	// Row 0 sends to 1..5; reverses exist only from 2 and 4.
	for j := 1; j <= 5; j++ {
		m.Set(0, j, int64(j*10))
	}
	m.Set(2, 0, 5)
	m.Set(4, 0, 5)
	c := load(m, nil)
	c.PartitionRows(func(i, z int) bool { return m.At(c.At(i, z), i) > 0 })
	row := c.RowDests(0)
	if len(row) != 5 {
		t.Fatalf("row length %d", len(row))
	}
	// Pairwise-capable entries (2, 4) first, in original relative
	// order; the rest (1, 3, 5) follow in original relative order.
	want := []int{2, 4, 1, 3, 5}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("row = %v, want %v", row, want)
		}
	}
	// Sizes must travel with their destinations.
	if c.SizeAt(0, 0) != 20 || c.SizeAt(0, 2) != 10 {
		t.Errorf("sizes did not follow destinations: %d %d", c.SizeAt(0, 0), c.SizeAt(0, 2))
	}
}

func TestPartitionRowsEmptyAndFull(t *testing.T) {
	m := MustNew(4)
	m.Set(0, 1, 10)
	m.Set(0, 2, 20)
	c := load(m, nil)
	// All-true and all-false predicates preserve content and order.
	c.PartitionRows(func(int, int) bool { return true })
	row := c.RowDests(0)
	if row[0] != 1 || row[1] != 2 {
		t.Errorf("all-true changed order: %v", row)
	}
	c.PartitionRows(func(int, int) bool { return false })
	row = c.RowDests(0)
	if row[0] != 1 || row[1] != 2 {
		t.Errorf("all-false changed order: %v", row)
	}
}

func TestCompressShuffleChangesOrderButNotContent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, err := UniformRandom(64, 16, 128, rng)
	if err != nil {
		t.Fatal(err)
	}
	ordered := load(m, nil)
	shuffled := load(m, rand.New(rand.NewSource(14)))
	differs := false
	for i := 0; i < 64 && !differs; i++ {
		a, b := ordered.RowDests(i), shuffled.RowDests(i)
		for k := range a {
			if a[k] != b[k] {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Error("shuffle left every row in ascending order (astronomically unlikely)")
	}
}
