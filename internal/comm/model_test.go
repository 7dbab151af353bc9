package comm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// dense is the reference model of a Matrix: a plain n x n array of
// sizes. Every query below is its textbook O(n^2) form.
type dense struct {
	n int
	a []int64
}

func (d *dense) at(i, j int) int64 { return d.a[i*d.n+j] }

func (d *dense) messages() []Message {
	var out []Message
	for i := 0; i < d.n; i++ {
		for j := 0; j < d.n; j++ {
			if b := d.at(i, j); b > 0 {
				out = append(out, Message{Src: i, Dst: j, Bytes: b})
			}
		}
	}
	return out
}

func (d *dense) hash() string {
	g := NewDigest()
	g.String("matrix")
	g.Int64(int64(d.n))
	for _, msg := range d.messages() {
		g.Int64(int64(msg.Src))
		g.Int64(int64(msg.Dst))
		g.Int64(msg.Bytes)
	}
	return g.Hex()
}

// encode is the wire layout written straight from the definition:
// header, per-row counts, column gaps, sizes.
func (d *dense) encode() []byte {
	out := append([]byte("USWM"), MatrixWireVersion)
	out = binary.AppendUvarint(out, uint64(d.n))
	for i := 0; i < d.n; i++ {
		c := 0
		for j := 0; j < d.n; j++ {
			if d.at(i, j) > 0 {
				c++
			}
		}
		out = binary.AppendUvarint(out, uint64(c))
	}
	for i := 0; i < d.n; i++ {
		prev := -1
		for j := 0; j < d.n; j++ {
			if d.at(i, j) > 0 {
				out = binary.AppendUvarint(out, uint64(j-prev))
				prev = j
			}
		}
	}
	for _, msg := range d.messages() {
		out = binary.AppendUvarint(out, uint64(msg.Bytes))
	}
	return out
}

func (d *dense) recvDegree(j int) int {
	c := 0
	for i := 0; i < d.n; i++ {
		if d.at(i, j) > 0 {
			c++
		}
	}
	return c
}

func (d *dense) density() int {
	best := 0
	for i := 0; i < d.n; i++ {
		s := 0
		for j := 0; j < d.n; j++ {
			if d.at(i, j) > 0 {
				s++
			}
		}
		best = max(best, s, d.recvDegree(i))
	}
	return best
}

func (d *dense) symmetric() bool {
	for i := 0; i < d.n; i++ {
		for j := 0; j < d.n; j++ {
			if (d.at(i, j) > 0) != (d.at(j, i) > 0) {
				return false
			}
		}
	}
	return true
}

func (d *dense) uniform() (int64, bool) {
	var size int64
	for _, msg := range d.messages() {
		if size == 0 {
			size = msg.Bytes
		} else if msg.Bytes != size {
			return 0, false
		}
	}
	return size, true
}

func fromModel(d *dense) *Matrix {
	m := MustNew(d.n)
	for _, msg := range d.messages() {
		m.Set(msg.Src, msg.Dst, msg.Bytes)
	}
	return m
}

// checkModel compares every query of m with the dense model.
func checkModel(t *testing.T, step string, m *Matrix, d *dense) {
	t.Helper()
	want := d.messages()
	got := m.Messages()
	if len(got) != len(want) {
		t.Fatalf("%s: %d messages, model has %d", step, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: message %d = %v, model %v", step, k, got[k], want[k])
		}
		if at := m.Index(want[k].Src, want[k].Dst); at != k {
			t.Fatalf("%s: Index(%d,%d) = %d, want %d", step, want[k].Src, want[k].Dst, at, k)
		}
	}
	rev := m.Reverses(nil)
	for k, msg := range want {
		if back := d.at(msg.Dst, msg.Src) > 0; (rev[k] >= 0) != back || (back && rev[k] != m.Index(msg.Dst, msg.Src)) {
			t.Fatalf("%s: Reverses[%d] = %d for %v", step, k, rev[k], msg)
		}
	}
	for i := 0; i < d.n; i++ {
		for j := 0; j < d.n; j++ {
			if m.At(i, j) != d.at(i, j) {
				t.Fatalf("%s: At(%d,%d) = %d, model %d", step, i, j, m.At(i, j), d.at(i, j))
			}
		}
	}
	recv := m.RecvDegrees(nil)
	for j := 0; j < d.n; j++ {
		if m.RecvDegree(j) != d.recvDegree(j) || recv[j] != d.recvDegree(j) {
			t.Fatalf("%s: RecvDegree(%d) = %d/%d, model %d", step, j, m.RecvDegree(j), recv[j], d.recvDegree(j))
		}
	}
	if m.Density() != d.density() {
		t.Fatalf("%s: Density = %d, model %d", step, m.Density(), d.density())
	}
	if m.Symmetric() != d.symmetric() {
		t.Fatalf("%s: Symmetric = %v, model %v", step, m.Symmetric(), d.symmetric())
	}
	wb, wu := d.uniform()
	if b, u := m.Uniform(); b != wb || u != wu {
		t.Fatalf("%s: Uniform = (%d,%v), model (%d,%v)", step, b, u, wb, wu)
	}
	if m.ContentHash() != d.hash() {
		t.Fatalf("%s: ContentHash differs from the model's", step)
	}
	enc := m.EncodeBinary()
	if !bytes.Equal(enc, d.encode()) {
		t.Fatalf("%s: EncodeBinary differs from the model's", step)
	}
	back, err := DecodeMatrixBinary(enc)
	if err != nil || !back.Equal(m) || !m.Equal(back) {
		t.Fatalf("%s: binary round trip: err=%v", step, err)
	}
	if ref := fromModel(d); !m.Equal(ref) || !ref.Equal(m) {
		t.Fatalf("%s: Equal disagrees with a matrix built from the model", step)
	}
	if err := m.Validate(); (err == nil) == m.HasSelfMessages() {
		t.Fatalf("%s: Validate = %v with self messages %v", step, err, m.HasSelfMessages())
	}
}

// TestMatrixMatchesDenseModel drives random Set/Add/Zero/Clone and
// XxxInto sequences through a Matrix and through the dense model, and
// compares every query after every step — zero-sets that delete an
// entry, Add accumulation and regeneration into reused storage
// included.
func TestMatrixMatchesDenseModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(11)
		m := MustNew(n)
		d := &dense{n: n, a: make([]int64, n*n)}
		for step := 0; step < 60; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			var name string
			switch op := rng.Intn(20); {
			case op < 8:
				v := int64(rng.Intn(4)) * 64 // 0 deletes
				name = "Set"
				m.Set(i, j, v)
				d.a[i*n+j] = v
			case op < 14:
				v := int64(rng.Intn(3)) * 32
				name = "Add"
				m.Add(i, j, v)
				d.a[i*n+j] += v
			case op < 15:
				name = "Zero"
				m.Zero()
				clear(d.a)
			case op < 17:
				name = "Clone"
				c := m.Clone()
				c.Set(i, j, c.At(i, j)+1) // the copy is independent
				if m.At(i, j) != d.at(i, j) {
					t.Fatalf("seed %d step %d: writing a clone changed the original", seed, step)
				}
				m = m.Clone()
			default:
				name = "Into"
				gen := rand.New(rand.NewSource(seed*100 + int64(step)))
				fresh := rand.New(rand.NewSource(seed*100 + int64(step)))
				deg := 1 + rng.Intn(n-1)
				var ref *Matrix
				var err error
				if rng.Intn(2) == 0 {
					err = DRegularInto(m, deg, 256, gen)
					ref, _ = DRegular(n, deg, 256, fresh)
				} else {
					err = HotSpotInto(m, deg, 512, 1, 0.5, gen)
					ref, _ = HotSpot(n, deg, 512, 1, 0.5, fresh)
				}
				if err != nil {
					t.Fatal(err)
				}
				clear(d.a)
				for _, msg := range ref.Messages() {
					d.a[msg.Src*n+msg.Dst] = msg.Bytes
				}
			}
			checkModel(t, name, m, d)
		}
	}
}

// TestEqualComparesRows pins that Equal tells apart matrices whose
// destinations and sizes agree but sit in different rows.
func TestEqualComparesRows(t *testing.T) {
	a, b := MustNew(3), MustNew(3)
	a.Set(0, 2, 5)
	b.Set(1, 2, 5)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("matrices with the same message in different rows compare equal")
	}
}

// TestReadLaterLineOverrides pins Read's last-line-wins rule, including
// a size of 0 that removes an earlier message.
func TestReadLaterLineOverrides(t *testing.T) {
	m, err := Read(bytes.NewReader([]byte("n 3\n0 1 5\n1 2 7\n0 1 0\n1 2 9\n")))
	if err != nil {
		t.Fatal(err)
	}
	if m.MessageCount() != 1 || m.At(0, 1) != 0 || m.At(1, 2) != 9 {
		t.Fatalf("got %v", m.Messages())
	}
}

// TestFromTriples checks that unordered triples build the same matrix
// as row-major Sets, and that a repeated pair is named by the index of
// its second occurrence.
func TestFromTriples(t *testing.T) {
	m, err := FromTriples(4, [][3]int64{{2, 1, 7}, {0, 3, 5}, {0, 1, 9}, {3, 0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew(4)
	want.Set(0, 1, 9)
	want.Set(0, 3, 5)
	want.Set(2, 1, 7)
	want.Set(3, 0, 4)
	if !m.Equal(want) {
		t.Fatalf("got %v", m.Messages())
	}
	if ordered, err := FromTriples(4, [][3]int64{{0, 1, 9}, {0, 3, 5}, {2, 1, 7}, {3, 0, 4}}); err != nil || !ordered.Equal(want) {
		t.Fatalf("row-major input: err=%v, got %v", err, ordered)
	}
	for _, bad := range [][][3]int64{
		{{0, 1, 5}, {1, 2, 5}, {0, 1, 6}},
		{{0, 4, 5}},
		{{1, 1, 5}},
		{{0, 1, 0}},
	} {
		if _, err := FromTriples(4, bad); err == nil {
			t.Errorf("FromTriples(%v) accepted", bad)
		}
	}
	if _, err := FromTriples(4, [][3]int64{{0, 1, 5}, {1, 2, 5}, {0, 1, 6}}); err == nil ||
		err.Error() != "comm: message 2: duplicate entry 0->1" {
		t.Errorf("duplicate error = %v", err)
	}
}
