package comm

// Binary wire encoding of the communication matrix: the compact,
// self-describing form the unschedd service serves when a client asks
// for application/x-unsched-binary. It serializes the Matrix's own
// sparse rows (the paper's workloads are d-regular with d << n): per-row
// entry counts, destination columns delta-encoded as varints, and
// sizes as varints. A 1024-node d=8 matrix is ~40 KB instead of the
// ~300 KB of its JSON triples, before compression.
//
// The encoding is canonical: rows in ascending order, columns strictly
// ascending within a row, every varint minimal. The decoder is total
// (arbitrary input yields an error, never a panic — FuzzBinaryMatrix)
// and strict: it rejects non-canonical input, so any accepted payload
// re-encodes byte-identically. Canonical bytes make the format safe to
// cache, checksum, and content-hash.
//
// Layout (after the 5-byte header "USWM" + version 1), column
// oriented — all counts, then all column gaps, then all sizes — so the
// service's gzip layer sees long runs of similar varints (a uniform
// workload's size column is one repeated value) instead of interleaved
// noise:
//
//	uvarint n                      matrix dimension, 1..MaxReadNodes
//	n uvarints                     per-row nonzero entry counts c_0..c_{n-1}
//	sum(c_i) uvarints              column gaps, row-major, ascending within
//	                               a row: first col+1, then col-prev
//	sum(c_i) uvarints              message sizes, row-major, each >= 1
//
// No trailing bytes are allowed.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// MatrixWireVersion is the format version AppendBinary writes and
// DecodeMatrixBinary accepts.
const MatrixWireVersion = 1

const matrixWireHeaderLen = 5 // magic + version

var matrixWireMagic = [4]byte{'U', 'S', 'W', 'M'}

var (
	errWireTooShort  = errors.New("comm: binary matrix truncated")
	errWireMagic     = errors.New("comm: bad binary matrix magic")
	errWireVersion   = errors.New("comm: unsupported binary matrix version")
	errWireVarint    = errors.New("comm: bad varint in binary matrix")
	errWireTrailing  = errors.New("comm: trailing bytes after binary matrix")
	errWireRowCount  = errors.New("comm: binary matrix row entry count out of range")
	errWireColumn    = errors.New("comm: binary matrix column out of range")
	errWireZeroBytes = errors.New("comm: binary matrix message size must be positive")
)

// AppendUvarint appends the minimal varint encoding of v to dst. It is
// the primitive shared by the matrix codec and the service's binary
// response envelope.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// ReadUvarint decodes one strictly minimal varint from the front of b,
// returning the value and the number of bytes consumed. Non-minimal
// encodings (e.g. 0x80 0x00 for zero) are rejected: every accepted
// wire payload must have exactly one byte representation, so that
// decode-then-encode round-trips byte-identically.
func ReadUvarint(b []byte) (uint64, int, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, 0, errWireVarint
	}
	// Minimality: k bytes were consumed, so v must need k bytes.
	var scratch [binary.MaxVarintLen64]byte
	if binary.PutUvarint(scratch[:], v) != k {
		return 0, 0, errWireVarint
	}
	return v, k, nil
}

// AppendBinary appends the canonical binary wire encoding of m to dst
// and returns the extended slice. The output decodes with
// DecodeMatrixBinary; encoding the decoded matrix reproduces the same
// bytes.
func (m *Matrix) AppendBinary(dst []byte) []byte {
	dst = append(dst, matrixWireMagic[:]...)
	dst = append(dst, MatrixWireVersion)
	dst = binary.AppendUvarint(dst, uint64(m.n))
	for i := 0; i < m.n; i++ {
		dst = binary.AppendUvarint(dst, uint64(m.SendDegree(i)))
	}
	for i := 0; i < m.n; i++ {
		prev := int32(-1)
		cols, _ := m.Row(i)
		for _, j := range cols {
			dst = binary.AppendUvarint(dst, uint64(j-prev))
			prev = j
		}
	}
	for _, b := range m.size {
		dst = binary.AppendUvarint(dst, uint64(b))
	}
	return dst
}

// EncodeBinary returns the canonical binary wire encoding of m.
func (m *Matrix) EncodeBinary() []byte {
	// 2 bytes per varint is the common case for the sizes the paper
	// uses; growing once more on dense rows is fine.
	return m.AppendBinary(make([]byte, 0, matrixWireHeaderLen+4*m.MessageCount()+m.n+8))
}

// DecodeMatrixBinary parses the binary wire form produced by
// AppendBinary. The decoder is total and strict: malformed, truncated,
// oversized (beyond MaxReadNodes), or non-canonical input — columns
// out of order, zero sizes, non-minimal varints, trailing bytes —
// yields an error, never a panic, and any accepted payload re-encodes
// to exactly the input bytes.
func DecodeMatrixBinary(b []byte) (*Matrix, error) {
	if len(b) < matrixWireHeaderLen {
		return nil, errWireTooShort
	}
	if [4]byte(b[:4]) != matrixWireMagic {
		return nil, errWireMagic
	}
	if b[4] != MatrixWireVersion {
		return nil, errWireVersion
	}
	rest := b[matrixWireHeaderLen:]
	nv, k, err := ReadUvarint(rest)
	if err != nil {
		return nil, err
	}
	rest = rest[k:]
	if nv < 1 || nv > MaxReadNodes {
		return nil, fmt.Errorf("comm: binary matrix size %d out of range [1,%d]", nv, MaxReadNodes)
	}
	n := int(nv)
	// Every row costs at least one byte (its count varint), so a header
	// promising n rows needs at least n more bytes: check before
	// allocating the row offsets.
	if len(rest) < n {
		return nil, errWireTooShort
	}
	m := MustNew(n)
	m.off = make([]int, n+1)
	for i := 0; i < n; i++ {
		cv, k, err := ReadUvarint(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[k:]
		if cv > uint64(n) {
			return nil, errWireRowCount
		}
		m.off[i+1] = m.off[i] + int(cv)
	}
	total := m.off[n]
	// Each entry contributes one delta varint and one size varint, each
	// at least a byte: bound the total before allocating the rows.
	if len(rest) < 2*total {
		return nil, errWireTooShort
	}
	m.col = make([]int32, total)
	m.size = make([]int64, total)
	for i := 0; i < n; i++ {
		prev := -1
		for p := m.off[i]; p < m.off[i+1]; p++ {
			delta, k, err := ReadUvarint(rest)
			if err != nil {
				return nil, err
			}
			rest = rest[k:]
			if delta == 0 || delta > uint64(n) {
				return nil, errWireColumn
			}
			col := prev + int(delta)
			if col >= n {
				return nil, errWireColumn
			}
			m.col[p] = int32(col)
			prev = col
		}
	}
	for p := range m.size {
		size, k, err := ReadUvarint(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[k:]
		if size == 0 {
			return nil, errWireZeroBytes
		}
		if size > math.MaxInt64 {
			return nil, fmt.Errorf("comm: binary matrix message size %d overflows int64", size)
		}
		m.size[p] = int64(size)
	}
	if len(rest) != 0 {
		return nil, errWireTrailing
	}
	return m, nil
}
