// Package comm defines the communication matrix COM that drives all
// scheduling algorithms in this repository, the compressed n x d form
// CCOM used by the randomized schedulers, and generators for the
// workloads the paper evaluates (random all-to-many patterns of a
// given density) plus the irregular-application patterns that motivate
// them (mesh halo exchange, sparse mat-vec).
//
// COM(i,j) = m > 0 means processor Pi must send a message of m bytes
// to Pj; COM(i,j) = 0 means no message (paper §2). Row i is Pi's
// sending vector, column i its receiving vector.
//
// COM is sparse in practice — d messages per row with d << n — so a
// Matrix stores only its messages, as compressed sparse rows: every
// operation costs O(n + messages) rather than O(n^2), which is the
// paper's CCOM argument (§4.2) applied to the matrix itself.
// Generators and decoders write the rows once, from queued (src, dst,
// bytes) triples or a bitset of placed entries; Set and Add edit a
// finished matrix in place.
package comm

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Matrix is the n x n communication matrix COM, stored as compressed
// sparse rows: row i's messages are the destinations col[off[i]:
// off[i+1]], strictly ascending, with the parallel sizes
// size[off[i]:off[i+1]], all positive. off covers a prefix of the
// rows; rows from len(off)-1 on are empty, so filling a matrix in
// row-major order with Set appends without touching any offset but
// the last. The zero value is not usable; construct with New or the
// generator functions.
//
// Reads never modify a Matrix, so one may be shared by any number of
// goroutines as long as none of them writes it.
type Matrix struct {
	n    int
	off  []int
	col  []int32
	size []int64
	b    *builder // build scratch of the generators, kept for reuse
}

// New returns an n x n all-zero communication matrix. n must be
// positive.
func New(n int) (*Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("comm: matrix size %d must be positive", n)
	}
	return &Matrix{n: n}, nil
}

// MustNew is New for known-good sizes; it panics on error.
func MustNew(n int) *Matrix {
	m, err := New(n)
	if err != nil {
		panic(err)
	}
	return m
}

// N returns the number of processors.
func (m *Matrix) N() int { return m.n }

// start returns the position of row i's first message (for i == n,
// the message count).
func (m *Matrix) start(i int) int {
	if i < len(m.off) {
		return m.off[i]
	}
	return len(m.col)
}

// Row returns Pi's messages: the destinations in ascending order and
// the parallel message sizes. The slices alias the matrix storage and
// must not be modified; they are invalidated by the next write.
func (m *Matrix) Row(i int) (dst []int32, bytes []int64) {
	lo, hi := m.start(i), m.start(i+1)
	return m.col[lo:hi], m.size[lo:hi]
}

// Index returns the position of the message Pi -> Pj in the row-major
// message order of Messages, or -1 if COM(i, j) = 0. It is the key of
// per-message scratch arrays of length MessageCount. Cost O(log d).
func (m *Matrix) Index(i, j int) int {
	m.check(i, j)
	lo := m.start(i)
	if k, ok := find(m.col[lo:m.start(i+1)], int32(j)); ok {
		return lo + k
	}
	return -1
}

// find returns the position of j in the ascending row cols, or where
// it would be inserted, and whether it is there.
func find(cols []int32, j int32) (int, bool) {
	lo, hi := 0, len(cols)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if cols[h] < j {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(cols) && cols[lo] == j
}

func (m *Matrix) check(i, j int) {
	if uint(i) >= uint(m.n) || uint(j) >= uint(m.n) {
		panic(fmt.Sprintf("comm: COM(%d,%d) outside a %d-node matrix", i, j, m.n))
	}
}

// At returns COM(i, j), the number of bytes Pi sends to Pj.
func (m *Matrix) At(i, j int) int64 {
	if k := m.Index(i, j); k >= 0 {
		return m.size[k]
	}
	return 0
}

// Set assigns COM(i, j) = bytes; 0 removes the message. Negative byte
// counts panic: message sizes come from generators and loaders that
// validate input, so a negative value is a programming error, not bad
// data. Appending in row-major order costs O(1); any other new entry
// costs O(n + messages), so bulk builders collect triples instead.
func (m *Matrix) Set(i, j int, bytes int64) { m.update(i, j, bytes, false) }

// Add accumulates bytes onto COM(i, j); used by pattern builders that
// aggregate per-element traffic into per-processor messages. It costs
// what Set does.
func (m *Matrix) Add(i, j int, bytes int64) { m.update(i, j, bytes, true) }

func (m *Matrix) update(i, j int, bytes int64, add bool) {
	if bytes < 0 {
		panic(fmt.Sprintf("comm: negative message size %d for COM(%d,%d)", bytes, i, j))
	}
	m.check(i, j)
	lo, hi := m.start(i), m.start(i+1)
	k, found := find(m.col[lo:hi], int32(j))
	p := lo + k
	switch {
	case found && add:
		m.size[p] += bytes
	case found && bytes > 0:
		m.size[p] = bytes
	case found:
		m.col = slices.Delete(m.col, p, p+1)
		m.size = slices.Delete(m.size, p, p+1)
		m.shift(i, -1)
	case bytes > 0:
		for len(m.off) < i+2 {
			m.off = append(m.off, len(m.col))
		}
		m.col = slices.Insert(m.col, p, int32(j))
		m.size = slices.Insert(m.size, p, bytes)
		m.shift(i, 1)
	}
}

// shift moves the offsets of the rows after i by delta.
func (m *Matrix) shift(i, delta int) {
	for k := i + 1; k < len(m.off); k++ {
		m.off[k] += delta
	}
}

// Zero removes every message in place, keeping the storage. It is the
// reuse primitive behind the XxxInto pattern generators: a campaign
// worker holds one matrix per machine size and regenerates workloads
// into it instead of allocating fresh rows per cell.
func (m *Matrix) Zero() {
	m.off = m.off[:0]
	m.col = m.col[:0]
	m.size = m.size[:0]
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{n: m.n, off: slices.Clone(m.off), col: slices.Clone(m.col), size: slices.Clone(m.size)}
}

// Equal reports whether the two matrices are identical.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n || !slices.Equal(m.col, o.col) || !slices.Equal(m.size, o.size) {
		return false
	}
	for i := 0; i < m.n; i++ {
		if m.start(i) != o.start(i) {
			return false
		}
	}
	return true
}

// SendDegree returns the number of distinct destinations of Pi (the
// number of nonzero entries in row i).
func (m *Matrix) SendDegree(i int) int { return m.start(i+1) - m.start(i) }

// RecvDegree returns the number of distinct sources of Pi (the number
// of nonzero entries in column i). It scans every message; callers
// that need all columns use RecvDegrees.
func (m *Matrix) RecvDegree(i int) int {
	deg := 0
	for _, j := range m.col {
		if int(j) == i {
			deg++
		}
	}
	return deg
}

// RecvDegrees returns every processor's receive degree in one pass
// over the messages, reusing buf's storage when it is large enough.
func (m *Matrix) RecvDegrees(buf []int) []int {
	buf = grow(buf, m.n)
	clear(buf)
	for _, j := range m.col {
		buf[j]++
	}
	return buf
}

// Reverses returns, for each message in Index order, the Index of its
// reverse (Pj -> Pi for the message Pi -> Pj), or -1 if there is none.
// One merge pass over the rows, O(n + messages): row i is walked in
// column order while a cursor into every row j advances to column i.
// buf's storage is reused when its capacity holds MessageCount+N.
func (m *Matrix) Reverses(buf []int) []int {
	nm := len(m.col)
	buf = grow(buf, nm+m.n)
	rev, cur := buf[:nm], buf[nm:]
	for j := range cur {
		cur[j] = m.start(j)
	}
	for i := 0; i < m.n; i++ {
		for p := m.start(i); p < m.start(i+1); p++ {
			j := m.col[p]
			q, end := cur[j], m.start(int(j)+1)
			for q < end && m.col[q] < int32(i) {
				q++
			}
			cur[j] = q
			rev[p] = -1
			if q < end && m.col[q] == int32(i) {
				rev[p] = q
			}
		}
	}
	return rev
}

// Density returns the paper's density d: the maximum over processors
// of messages sent or received. At least Density partial permutations
// are required to deliver all messages (paper §2.1, assumption 3).
func (m *Matrix) Density() int {
	d := 0
	for i := 0; i < m.n; i++ {
		d = max(d, m.SendDegree(i))
	}
	for _, r := range m.RecvDegrees(nil) {
		d = max(d, r)
	}
	return d
}

// MessageCount returns the total number of messages (nonzero entries).
func (m *Matrix) MessageCount() int { return len(m.col) }

// TotalBytes returns the sum of all message sizes.
func (m *Matrix) TotalBytes() int64 {
	var total int64
	for _, v := range m.size {
		total += v
	}
	return total
}

// MaxMessageBytes returns the largest single message size, or 0 for an
// empty matrix.
func (m *Matrix) MaxMessageBytes() int64 {
	var mx int64
	for _, v := range m.size {
		mx = max(mx, v)
	}
	return mx
}

// Uniform reports whether every nonzero message has the same size, and
// that size (0 if there are no messages). The paper's experiments all
// use uniform sizes; the non-uniform schedulers relax this.
func (m *Matrix) Uniform() (bytes int64, uniform bool) {
	if len(m.size) == 0 {
		return 0, true
	}
	for _, v := range m.size {
		if v != m.size[0] {
			return 0, false
		}
	}
	return m.size[0], true
}

// Symmetric reports whether COM(i,j) > 0 iff COM(j,i) > 0 for all
// pairs (the pattern, not necessarily the sizes, is symmetric).
// Symmetric patterns let LP and RS_NL pair every transfer into a
// bidirectional exchange.
func (m *Matrix) Symmetric() bool {
	for _, r := range m.Reverses(nil) {
		if r < 0 {
			return false
		}
	}
	return true
}

// HasSelfMessages reports whether any diagonal entry is nonzero. Self
// messages need no network traffic; schedulers reject them so that
// every scheduled transfer maps to a real circuit.
func (m *Matrix) HasSelfMessages() bool {
	for i := 0; i < m.n; i++ {
		if m.Index(i, i) >= 0 {
			return true
		}
	}
	return false
}

// Message is one entry of the communication matrix.
type Message struct {
	Src   int
	Dst   int
	Bytes int64
}

// Messages returns all nonzero entries in row-major order.
func (m *Matrix) Messages() []Message {
	return m.AppendMessages(make([]Message, 0, m.MessageCount()))
}

// AppendMessages appends all nonzero entries in row-major order to buf
// and returns the extended slice — the allocation-free form of
// Messages for callers that reuse a scratch buffer.
func (m *Matrix) AppendMessages(buf []Message) []Message {
	for i := 0; i < m.n; i++ {
		buf = m.appendRow(buf, i)
	}
	return buf
}

func (m *Matrix) appendRow(buf []Message, i int) []Message {
	dst, bytes := m.Row(i)
	for k, j := range dst {
		buf = append(buf, Message{Src: i, Dst: int(j), Bytes: bytes[k]})
	}
	return buf
}

// SendVector returns row i as (destination, bytes) pairs — the send_i
// vector of the paper.
func (m *Matrix) SendVector(i int) []Message { return m.appendRow(nil, i) }

// RecvVector returns column i as (source, bytes) pairs — the recv_i
// vector of the paper.
func (m *Matrix) RecvVector(i int) []Message {
	var msgs []Message
	for j := 0; j < m.n; j++ {
		if b := m.At(j, i); b > 0 {
			msgs = append(msgs, Message{Src: j, Dst: i, Bytes: b})
		}
	}
	return msgs
}

// Validate checks that every message size is positive (Add can
// overflow) and that there are no self messages (Set accepts a
// diagonal entry). Generators always produce valid matrices; Validate
// guards externally built ones.
func (m *Matrix) Validate() error {
	for i := 0; i < m.n; i++ {
		dst, bytes := m.Row(i)
		for k, b := range bytes {
			if b <= 0 {
				return fmt.Errorf("comm: non-positive entry COM(%d,%d) = %d", i, dst[k], b)
			}
		}
	}
	if m.HasSelfMessages() {
		return fmt.Errorf("comm: matrix has self messages on the diagonal")
	}
	return nil
}

// entry is one (row, col, size) triple of a matrix under construction.
type entry struct {
	row, col int32
	size     int64
}

// builder is the scratch of a matrix build: queued triples for the
// generators and decoders that emit entries in any order, and a bitset
// of placed entries for the rejection samplers. A matrix keeps its
// builder, so regenerating into it allocates nothing.
type builder struct {
	m   *Matrix
	tri []entry
	tmp []entry // tri sorted by row
	// done's row merge: per column, the row (plus one) that last
	// touched it and that row's merged size; the row's columns.
	stamp []int32
	acc   []int64
	cols  []int32
	seen  []uint64 // storage of the marks bitset
}

// newBuilder empties m and returns its builder.
func newBuilder(m *Matrix) *builder {
	m.Zero()
	if m.b == nil {
		m.b = &builder{m: m}
	}
	m.b.tri = m.b.tri[:0]
	return m.b
}

// put queues the entry (i, j) = bytes.
func (b *builder) put(i, j int, bytes int64) {
	b.tri = append(b.tri, entry{row: int32(i), col: int32(j), size: bytes})
}

// bitset is an n x n bit matrix of placed entries, each row padded to
// whole words so a row's set bits read back in column order.
type bitset struct {
	words []uint64
	w     int // words per row
}

// marks returns the builder's cleared placed-entry bitset.
func (b *builder) marks() bitset {
	n := b.m.n
	w := (n + 63) / 64
	b.seen = grow(b.seen, n*w)
	clear(b.seen)
	return bitset{words: b.seen, w: w}
}

func (s bitset) has(i, j int) bool {
	return s.words[i*s.w+int(uint(j)/64)]&(1<<(uint(j)%64)) != 0
}

// add sets (i, j) and reports whether it was already set.
func (s bitset) add(i, j int) (was bool) {
	w, bit := &s.words[i*s.w+int(uint(j)/64)], uint64(1)<<(uint(j)%64)
	was = *w&bit != 0
	*w |= bit
	return was
}

// fill makes the set entries of s the matrix's messages, all of the
// given size, in row-major order.
func (b *builder) fill(s bitset, bytes int64) {
	m, total := b.m, 0
	for _, word := range s.words {
		total += bits.OnesCount64(word)
	}
	m.col, m.size, m.off = grow(m.col, total), grow(m.size, total), grow(m.off, m.n+1)
	p := 0
	m.off[0] = 0
	for i := 0; i < m.n; i++ {
		for k, word := range s.words[i*s.w : (i+1)*s.w] {
			for ; word != 0; word &= word - 1 {
				m.col[p], m.size[p] = int32(k*64+bits.TrailingZeros64(word)), bytes
				p++
			}
		}
		m.off[i+1] = p
	}
}

// done merges the queued triples into the matrix rows. Repeated
// (i, j) entries are summed when add is set, and otherwise the last
// one queued wins; entries that end at 0 are dropped. It reports
// whether any (i, j) was repeated. Cost O(n + entries), plus sorting
// each row's distinct columns.
func (b *builder) done(add bool) (repeated bool) {
	m, n := b.m, b.m.n
	src := b.tri
	// Halo and stencil builds queue their rows in order; they skip the sort.
	if !slices.IsSortedFunc(src, func(x, y entry) int { return int(x.row - y.row) }) {
		// Stable counting sort by row, keeping queue order in a row.
		// tmp takes tri's capacity, so it regrows only when tri does.
		if cap(b.tmp) < len(src) {
			b.tmp = make([]entry, cap(src))
		}
		b.tmp = b.tmp[:len(src)]
		m.off = grow(m.off, n+1)
		start := m.off
		clear(start)
		for _, t := range src {
			start[t.row+1]++
		}
		for i := 0; i < n; i++ {
			start[i+1] += start[i]
		}
		for _, t := range src {
			b.tmp[start[t.row]] = t
			start[t.row]++
		}
		src = b.tmp
	}
	b.stamp, b.acc = grow(b.stamp, n), grow(b.acc, n)
	clear(b.stamp)
	// A row's merged entries are written back over its consumed ones,
	// so the rows end up compacted in src[:w] and the matrix storage is
	// sized once, exactly.
	m.off = append(grow(m.off, n+1)[:0], 0)
	w := 0
	for k := 0; k < len(src); {
		row := src[k].row
		for len(m.off) <= int(row) {
			m.off = append(m.off, w)
		}
		cols := grow(b.cols, n)[:0]
		for ; k < len(src) && src[k].row == row; k++ {
			j, s := src[k].col, src[k].size
			switch {
			case b.stamp[j] != row+1:
				b.stamp[j], b.acc[j] = row+1, s
				cols = append(cols, j)
			case add:
				repeated = true
				b.acc[j] += s
			default:
				repeated = true
				b.acc[j] = s
			}
		}
		slices.Sort(cols)
		for _, j := range cols {
			if s := b.acc[j]; s != 0 {
				src[w] = entry{col: j, size: s}
				w++
			}
		}
		b.cols = cols
	}
	m.off = append(m.off, w)
	m.col, m.size = grow(m.col, w), grow(m.size, w)
	for k, t := range src[:w] {
		m.col[k], m.size[k] = t.col, t.size
	}
	return repeated
}

// grow returns buf resized to n, reusing its storage when it is large
// enough; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// FromTriples returns the n x n matrix whose messages are the given
// (src, dst, bytes) triples in any order — the JSON wire form of a
// matrix. Every triple must name two distinct processors in [0, n)
// and a positive size, and no (src, dst) pair may appear twice:
// silently overwriting or summing ambiguous input would accept a
// matrix the sender did not mean. Errors name the first offending
// triple by index.
func FromTriples(n int, triples [][3]int64) (*Matrix, error) {
	m, err := New(n)
	if err != nil {
		return nil, err
	}
	b := newBuilder(m)
	b.tri = slices.Grow(b.tri, len(triples))
	for k, t := range triples {
		src, dst, bytes := t[0], t[1], t[2]
		if src < 0 || src >= int64(n) || dst < 0 || dst >= int64(n) {
			return nil, fmt.Errorf("comm: message %d: node out of range [0,%d)", k, n)
		}
		if src == dst {
			return nil, fmt.Errorf("comm: message %d: self message %d->%d", k, src, dst)
		}
		if bytes <= 0 {
			return nil, fmt.Errorf("comm: message %d: size %d must be positive", k, bytes)
		}
		b.put(int(src), int(dst), bytes)
	}
	if !b.done(false) {
		m.b = nil
		return m, nil
	}
	// Rare error path: find the first triple repeating an earlier one.
	seen := make(map[[2]int64]bool, len(triples))
	for k, t := range triples {
		pair := [2]int64{t[0], t[1]}
		if seen[pair] {
			return nil, fmt.Errorf("comm: message %d: duplicate entry %d->%d", k, t[0], t[1])
		}
		seen[pair] = true
	}
	panic("comm: FromTriples lost a duplicate")
}

// String renders small matrices for debugging; large matrices render
// as a summary line.
func (m *Matrix) String() string {
	if m.n > 16 {
		return fmt.Sprintf("comm.Matrix(n=%d, messages=%d, density=%d, bytes=%d)",
			m.n, m.MessageCount(), m.Density(), m.TotalBytes())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "comm.Matrix(n=%d)\n", m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteTo serializes the matrix in a simple line-oriented text format:
// a header "n <size>" followed by one "i j bytes" line per message.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	n, err := fmt.Fprintf(bw, "n %d\n", m.n)
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, msg := range m.Messages() {
		n, err := fmt.Fprintf(bw, "%d %d %d\n", msg.Src, msg.Dst, msg.Bytes)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// MaxReadNodes bounds the matrix size Read and DecodeMatrixBinary
// accept, and with it the per-request cost of the unschedd service,
// whose simulator state is still O(n^2): 4096 nodes is the largest
// machine the service models.
const MaxReadNodes = 4096

// Read parses the format written by WriteTo. A later line for the same
// (src, dst) pair overrides an earlier one, and a size of 0 removes
// the message.
func Read(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("comm: empty input")
	}
	var n int
	if _, err := fmt.Sscanf(sc.Text(), "n %d", &n); err != nil {
		return nil, fmt.Errorf("comm: bad header %q: %v", sc.Text(), err)
	}
	if n > MaxReadNodes {
		return nil, fmt.Errorf("comm: matrix size %d exceeds limit %d", n, MaxReadNodes)
	}
	m, err := New(n)
	if err != nil {
		return nil, err
	}
	b := newBuilder(m)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("comm: line %d: want 'src dst bytes', got %q", line, text)
		}
		src, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("comm: line %d: bad src: %v", line, err)
		}
		dst, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("comm: line %d: bad dst: %v", line, err)
		}
		bytes, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("comm: line %d: bad size: %v", line, err)
		}
		if src < 0 || src >= n || dst < 0 || dst >= n {
			return nil, fmt.Errorf("comm: line %d: node out of range [0,%d)", line, n)
		}
		if bytes < 0 {
			return nil, fmt.Errorf("comm: line %d: negative size %d", line, bytes)
		}
		b.put(src, dst, bytes)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	b.done(false)
	m.b = nil
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
