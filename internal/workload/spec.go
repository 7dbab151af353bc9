// Package workload defines the canonical, machine-neutral description
// of a communication workload — the one vocabulary the service
// endpoints, the campaign engine, the CLIs, and the public API share,
// mirroring internal/topo's Spec layer for topologies. A spec names a
// pattern family and its parameters; building it against an n-node
// machine yields the comm.Matrix the schedulers consume.
//
// A spec round-trips through its string form:
//
//	uniform:D:BYTES        the paper's §6 workload: uniform message
//	                       size, exactly-d-regular random pattern
//	                       (comm.DRegular; "dregular" is an accepted
//	                       alias)
//	scatter:D:BYTES        send-side uniform random: exactly d random
//	                       destinations per sender, receive degrees
//	                       binomial (comm.UniformRandom)
//	hotspot:D:BYTES:HOT    d messages per sender, half of them aimed
//	                       at the first HOT processors (comm.HotSpot)
//	halo:WxH:BYTES         irregular-mesh halo exchange: a WxH element
//	                       grid with random diagonals, strip-partitioned
//	                       across the machine, BYTES per boundary element
//	spmv:NNZ:BYTES         sparse mat-vec gather with power-law column
//	                       popularity, NNZ nonzeros per row, BYTES per
//	                       fetched vector entry (comm.SpMVPowerLaw)
//	perm:BYTES             random fixed-point-free permutation
//	transpose:BYTES        matrix-transpose exchange on a k x k grid
//	                       (needs a square machine)
//	shift:K:BYTES          cyclic shift by K
//	stencil3d:XxYxZ:BYTES  7-point periodic stencil halo over an XxYxZ
//	                       element grid, strip-partitioned
//	bitcomp:BYTES          bit-complement permutation (needs a
//	                       power-of-two machine)
//	alltoall:BYTES         complete exchange, density n-1
//
// Parse with ParseSpec, render the canonical form with String, check
// machine-independent bounds with Validate and machine fit with
// ValidateFor, and construct the matrix with Build or BuildInto. The
// zero Spec is invalid.
//
// Specs are machine-sized at build time: the same halo:64x64:512 spec
// sweeps unchanged across a cube:6 and a torus:16x16 campaign. Each
// spec also owns a stream-key identity (Key) under which the
// experiment engine derives its deterministic RNG streams; the uniform
// kind's identity is exactly the historical (density, bytes) tuple, so
// classic density-sweep campaigns reproduce their goldens bit for bit.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"unsched/internal/comm"
)

// Structural caps, enforced by Validate before any build: they bound
// the work a spec can demand (element-grid builds cost O(elements),
// matrix builds O(n^2)) independent of the machine it lands on, so
// services can reject oversized specs from the string alone.
const (
	// MaxBytes bounds the per-message (or per-element) size parameter.
	MaxBytes = 1 << 30
	// MaxDegree bounds the density-style parameters (D, K, HOT).
	MaxDegree = 1 << 20
	// MaxSpMVNNZ bounds the spmv nonzeros-per-row parameter. The build
	// draws 32*n*NNZ power-law samples, so unlike the other degree
	// parameters this one multiplies directly into build time; 64 covers
	// every realistic sparse-matrix row while keeping the worst-case
	// build (n=1024) around two million draws.
	MaxSpMVNNZ = 64
	// MaxElements bounds the element grids behind halo and stencil3d
	// specs (the build walks every element).
	MaxElements = 1 << 21
	// MaxExtent bounds one element-grid axis.
	MaxExtent = 1 << 12
	// haloDiagProb is the diagonal-insertion probability of the halo
	// spec's irregular mesh — fixed so the spec string alone identifies
	// the distribution.
	haloDiagProb = 0.3
	// hotspotProb is the hot-destination probability of the hotspot
	// spec, fixed for the same reason.
	hotspotProb = 0.5
	// spmvRowsPerProc matches comm.SpMVPowerLaw's 32 rows per processor.
	spmvRowsPerProc = 32
)

// Spec is the canonical description of one workload. Construct with
// ParseSpec or the XxxSpec helpers; the zero value is invalid.
type Spec struct {
	// Kind is one of "uniform", "scatter", "hotspot", "halo", "spmv",
	// "perm", "transpose", "shift", "stencil3d", "bitcomp", "alltoall".
	Kind string
	// D is the density parameter (Kinds "uniform", "scatter",
	// "hotspot").
	D int
	// Bytes is the uniform message size, or the per-element size for
	// the aggregating kinds (halo, spmv, stencil3d). Every kind has it.
	Bytes int64
	// Hot is the hot-destination count (Kind "hotspot").
	Hot int
	// W, H are the element-grid extents (Kind "halo").
	W, H int
	// X, Y, Z are the element-grid extents (Kind "stencil3d").
	X, Y, Z int
	// NNZ is the nonzeros-per-row parameter (Kind "spmv").
	NNZ int
	// K is the shift distance (Kind "shift").
	K int
}

// UniformSpec builds the paper's classic workload spec without going
// through the string grammar: density d, uniform message size bytes.
func UniformSpec(d int, bytes int64) Spec { return Spec{Kind: "uniform", D: d, Bytes: bytes} }

// ScatterSpec, HotSpotSpec, HaloSpec, SpMVSpec, PermSpec,
// TransposeSpec, ShiftSpec, Stencil3DSpec, BitCompSpec, and
// AllToAllSpec are the remaining structured constructors.
func ScatterSpec(d int, bytes int64) Spec { return Spec{Kind: "scatter", D: d, Bytes: bytes} }
func HotSpotSpec(d int, bytes int64, hot int) Spec {
	return Spec{Kind: "hotspot", D: d, Bytes: bytes, Hot: hot}
}
func HaloSpec(w, h int, bytes int64) Spec { return Spec{Kind: "halo", W: w, H: h, Bytes: bytes} }
func SpMVSpec(nnz int, bytes int64) Spec  { return Spec{Kind: "spmv", NNZ: nnz, Bytes: bytes} }
func PermSpec(bytes int64) Spec           { return Spec{Kind: "perm", Bytes: bytes} }
func TransposeSpec(bytes int64) Spec      { return Spec{Kind: "transpose", Bytes: bytes} }
func ShiftSpec(k int, bytes int64) Spec   { return Spec{Kind: "shift", K: k, Bytes: bytes} }
func Stencil3DSpec(x, y, z int, bytes int64) Spec {
	return Spec{Kind: "stencil3d", X: x, Y: y, Z: z, Bytes: bytes}
}
func BitCompSpec(bytes int64) Spec  { return Spec{Kind: "bitcomp", Bytes: bytes} }
func AllToAllSpec(bytes int64) Spec { return Spec{Kind: "alltoall", Bytes: bytes} }

// ParseSpec parses the string form of a workload spec. "dregular" is
// accepted as an alias of "uniform" (they are the same generator; the
// canonical form always says "uniform"), mirroring topo's
// "hypercube"/"cube" aliasing.
func ParseSpec(s string) (Spec, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok || rest == "" {
		return Spec{}, fmt.Errorf("workload: spec %q: want kind:args (uniform:D:BYTES, hotspot:D:BYTES:HOT, halo:WxH:BYTES, spmv:NNZ:BYTES, perm:BYTES, transpose:BYTES, shift:K:BYTES, stencil3d:XxYxZ:BYTES, bitcomp:BYTES, alltoall:BYTES)", s)
	}
	fail := func(format string, args ...any) (Spec, error) {
		return Spec{}, fmt.Errorf("workload: spec %q: %s", s, fmt.Sprintf(format, args...))
	}
	fields := strings.Split(rest, ":")
	num := func(idx int, name string) (int, error) {
		v, err := strconv.Atoi(fields[idx])
		if err != nil {
			return 0, fmt.Errorf("workload: spec %q: bad %s %q", s, name, fields[idx])
		}
		return v, nil
	}
	size := func(idx int) (int64, error) {
		v, err := strconv.ParseInt(fields[idx], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("workload: spec %q: bad byte size %q", s, fields[idx])
		}
		return v, nil
	}
	var sp Spec
	switch kind {
	case "uniform", "dregular", "scatter":
		if kind == "dregular" {
			kind = "uniform"
		}
		if len(fields) != 2 {
			return fail("want %s:D:BYTES", kind)
		}
		d, err := num(0, "density")
		if err != nil {
			return Spec{}, err
		}
		b, err := size(1)
		if err != nil {
			return Spec{}, err
		}
		sp = Spec{Kind: kind, D: d, Bytes: b}
	case "hotspot":
		if len(fields) != 3 {
			return fail("want hotspot:D:BYTES:HOT")
		}
		d, err := num(0, "density")
		if err != nil {
			return Spec{}, err
		}
		b, err := size(1)
		if err != nil {
			return Spec{}, err
		}
		hot, err := num(2, "hot count")
		if err != nil {
			return Spec{}, err
		}
		sp = Spec{Kind: "hotspot", D: d, Bytes: b, Hot: hot}
	case "halo":
		if len(fields) != 2 {
			return fail("want halo:WxH:BYTES")
		}
		w, h, err := extent2(s, fields[0])
		if err != nil {
			return Spec{}, err
		}
		b, err := size(1)
		if err != nil {
			return Spec{}, err
		}
		sp = Spec{Kind: "halo", W: w, H: h, Bytes: b}
	case "spmv":
		if len(fields) != 2 {
			return fail("want spmv:NNZ:BYTES")
		}
		nnz, err := num(0, "nnz")
		if err != nil {
			return Spec{}, err
		}
		b, err := size(1)
		if err != nil {
			return Spec{}, err
		}
		sp = Spec{Kind: "spmv", NNZ: nnz, Bytes: b}
	case "perm", "transpose", "bitcomp", "alltoall":
		if len(fields) != 1 {
			return fail("want %s:BYTES", kind)
		}
		b, err := size(0)
		if err != nil {
			return Spec{}, err
		}
		sp = Spec{Kind: kind, Bytes: b}
	case "shift":
		if len(fields) != 2 {
			return fail("want shift:K:BYTES")
		}
		k, err := num(0, "shift distance")
		if err != nil {
			return Spec{}, err
		}
		b, err := size(1)
		if err != nil {
			return Spec{}, err
		}
		sp = Spec{Kind: "shift", K: k, Bytes: b}
	case "stencil3d":
		if len(fields) != 2 {
			return fail("want stencil3d:XxYxZ:BYTES")
		}
		x, y, z, err := extent3(s, fields[0])
		if err != nil {
			return Spec{}, err
		}
		b, err := size(1)
		if err != nil {
			return Spec{}, err
		}
		sp = Spec{Kind: "stencil3d", X: x, Y: y, Z: z, Bytes: b}
	default:
		return fail("unknown kind %q (want uniform, scatter, hotspot, halo, spmv, perm, transpose, shift, stencil3d, bitcomp, or alltoall)", kind)
	}
	return sp, sp.Validate()
}

// MustParseSpec is ParseSpec for known-good specs; it panics on error.
func MustParseSpec(s string) Spec {
	sp, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return sp
}

func extent2(spec, s string) (w, h int, err error) {
	ws, hs, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, fmt.Errorf("workload: spec %q: bad extent %q (want WxH)", spec, s)
	}
	w, errW := strconv.Atoi(ws)
	h, errH := strconv.Atoi(hs)
	if errW != nil || errH != nil {
		return 0, 0, fmt.Errorf("workload: spec %q: bad extent %q", spec, s)
	}
	return w, h, nil
}

func extent3(spec, s string) (x, y, z int, err error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("workload: spec %q: bad extent %q (want XxYxZ)", spec, s)
	}
	x, errX := strconv.Atoi(parts[0])
	y, errY := strconv.Atoi(parts[1])
	z, errZ := strconv.Atoi(parts[2])
	if errX != nil || errY != nil || errZ != nil {
		return 0, 0, 0, fmt.Errorf("workload: spec %q: bad extent %q", spec, s)
	}
	return x, y, z, nil
}

// Validate checks the machine-independent bounds — the same caps a
// service enforces from the spec string before paying for any O(n^2)
// or O(elements) build. Machine fit (density vs node count, square or
// power-of-two machines) is ValidateFor's job.
func (sp Spec) Validate() error {
	if sp.Bytes < 1 || sp.Bytes > MaxBytes {
		return fmt.Errorf("workload: %s byte size %d out of range [1,%d]", sp.Kind, sp.Bytes, int64(MaxBytes))
	}
	switch sp.Kind {
	case "uniform", "scatter":
		if sp.D < 1 || sp.D > MaxDegree {
			return fmt.Errorf("workload: %s density %d out of range [1,%d]", sp.Kind, sp.D, MaxDegree)
		}
	case "hotspot":
		if sp.D < 1 || sp.D > MaxDegree {
			return fmt.Errorf("workload: hotspot density %d out of range [1,%d]", sp.D, MaxDegree)
		}
		if sp.Hot < 1 || sp.Hot > MaxDegree {
			return fmt.Errorf("workload: hotspot hot count %d out of range [1,%d]", sp.Hot, MaxDegree)
		}
	case "halo":
		if sp.W < 2 || sp.H < 2 || sp.W > MaxExtent || sp.H > MaxExtent {
			return fmt.Errorf("workload: halo grid %dx%d out of range [2,%d] per axis", sp.W, sp.H, MaxExtent)
		}
		if sp.W*sp.H > MaxElements {
			return fmt.Errorf("workload: halo grid %dx%d has %d elements, limit %d", sp.W, sp.H, sp.W*sp.H, MaxElements)
		}
	case "spmv":
		if sp.NNZ < 1 || sp.NNZ > MaxSpMVNNZ {
			return fmt.Errorf("workload: spmv nnz %d out of range [1,%d]", sp.NNZ, MaxSpMVNNZ)
		}
	case "perm", "transpose", "bitcomp", "alltoall":
		// Bytes-only kinds: nothing beyond the shared size cap.
	case "shift":
		if sp.K < 1 || sp.K > MaxDegree {
			return fmt.Errorf("workload: shift distance %d out of range [1,%d]", sp.K, MaxDegree)
		}
	case "stencil3d":
		if sp.X < 1 || sp.Y < 1 || sp.Z < 1 || sp.X > MaxExtent || sp.Y > MaxExtent || sp.Z > MaxExtent {
			return fmt.Errorf("workload: stencil grid %dx%dx%d out of range [1,%d] per axis", sp.X, sp.Y, sp.Z, MaxExtent)
		}
		if sp.X*sp.Y*sp.Z > MaxElements {
			return fmt.Errorf("workload: stencil grid %dx%dx%d has %d elements, limit %d", sp.X, sp.Y, sp.Z, sp.X*sp.Y*sp.Z, MaxElements)
		}
	default:
		return fmt.Errorf("workload: unknown spec kind %q", sp.Kind)
	}
	return nil
}

// ValidateFor checks that the spec fits an n-node machine — the
// bounds that depend on where the workload lands. It assumes Validate
// passed.
func (sp Spec) ValidateFor(n int) error {
	if n < 2 {
		return fmt.Errorf("workload: %s needs at least 2 processors, got %d", sp.Kind, n)
	}
	switch sp.Kind {
	case "uniform", "scatter", "hotspot":
		if sp.D >= n {
			return fmt.Errorf("workload: %s density %d out of range (0,%d) on a %d-node machine", sp.Kind, sp.D, n, n)
		}
		if sp.Kind == "hotspot" && sp.Hot > n {
			return fmt.Errorf("workload: hotspot hot count %d exceeds the %d-node machine", sp.Hot, n)
		}
	case "halo":
		if sp.W*sp.H < n {
			return fmt.Errorf("workload: halo grid %dx%d has fewer elements than the %d-node machine", sp.W, sp.H, n)
		}
	case "transpose":
		k := 1
		for k*k < n {
			k++
		}
		if k*k != n {
			return fmt.Errorf("workload: transpose needs a square processor count, got %d", n)
		}
	case "shift":
		if sp.K%n == 0 {
			return fmt.Errorf("workload: shift by %d is a multiple of the %d-node machine size (self messages)", sp.K, n)
		}
	case "stencil3d":
		if sp.X*sp.Y*sp.Z < n {
			return fmt.Errorf("workload: stencil grid %dx%dx%d has fewer elements than the %d-node machine", sp.X, sp.Y, sp.Z, n)
		}
	case "bitcomp":
		if n&(n-1) != 0 {
			return fmt.Errorf("workload: bitcomp needs a power-of-two machine, got %d nodes", n)
		}
	}
	return nil
}

// String renders the canonical spec form, parseable by ParseSpec.
func (sp Spec) String() string {
	switch sp.Kind {
	case "uniform", "scatter":
		return fmt.Sprintf("%s:%d:%d", sp.Kind, sp.D, sp.Bytes)
	case "hotspot":
		return fmt.Sprintf("hotspot:%d:%d:%d", sp.D, sp.Bytes, sp.Hot)
	case "halo":
		return fmt.Sprintf("halo:%dx%d:%d", sp.W, sp.H, sp.Bytes)
	case "spmv":
		return fmt.Sprintf("spmv:%d:%d", sp.NNZ, sp.Bytes)
	case "perm", "transpose", "bitcomp", "alltoall":
		return fmt.Sprintf("%s:%d", sp.Kind, sp.Bytes)
	case "shift":
		return fmt.Sprintf("shift:%d:%d", sp.K, sp.Bytes)
	case "stencil3d":
		return fmt.Sprintf("stencil3d:%dx%dx%d:%d", sp.X, sp.Y, sp.Z, sp.Bytes)
	default:
		return fmt.Sprintf("invalid:%s", sp.Kind)
	}
}

// MsgBytes returns the spec's size parameter: the uniform message size
// for the fixed-size kinds, the per-element contribution for the
// aggregating kinds (halo, spmv, stencil3d), whose actual message
// sizes are multiples of it.
func (sp Spec) MsgBytes() int64 { return sp.Bytes }

// MaxMessageBytes returns a conservative upper bound on the size of
// any single message the built pattern can contain. For the
// fixed-size kinds this is exactly Bytes; for the aggregating kinds
// it is Bytes times a bound on how many per-element contributions one
// processor pair can accumulate — the strip-partition boundary cross
// section (halo: two boundary rows of W elements with at most 8
// neighbors each; stencil3d: two boundary planes of Y*Z elements with
// 6 edges each; spmv: the 32 columns each owner holds, fetched at
// most once per requester). Services gate this bound, not the bare
// per-element Bytes, so an aggregating spec cannot smuggle a
// multi-gigabyte message past a per-message size cap.
func (sp Spec) MaxMessageBytes() int64 {
	switch sp.Kind {
	case "halo":
		return sp.Bytes * 16 * int64(sp.W)
	case "stencil3d":
		return sp.Bytes * 12 * int64(sp.Y) * int64(sp.Z)
	case "spmv":
		return sp.Bytes * 2 * spmvRowsPerProc
	default:
		return sp.Bytes
	}
}

// DensityHint returns the nominal density of the built pattern on an
// n-node machine: the D parameter for the degree-parameterized kinds,
// the exact density for the permutation-shaped and complete-exchange
// kinds, and 0 for the data-dependent kinds (halo, spmv, stencil3d),
// whose density emerges from the partition.
func (sp Spec) DensityHint(n int) int {
	switch sp.Kind {
	case "uniform", "scatter", "hotspot":
		return sp.D
	case "perm", "transpose", "shift", "bitcomp":
		return 1
	case "alltoall":
		return n - 1
	default:
		return 0
	}
}

// SizeCVHint returns the nominal coefficient of variation (std/mean)
// of the built pattern's message sizes, without building anything:
// exactly 0 for the fixed-size kinds (every message carries Bytes),
// and a coarse analytic hint for the aggregating kinds whose message
// sizes emerge from the partition — spmv's power-law row weights put
// it around 1, the halo and stencil boundary cross sections vary
// moderately. The hint only has to land in the right quality-model
// band; it is not a measurement.
func (sp Spec) SizeCVHint() float64 {
	switch sp.Kind {
	case "spmv":
		return 1.0
	case "halo", "stencil3d":
		return 0.4
	default:
		return 0
	}
}

// Stream-key tags for the non-uniform kinds. The uniform kind's key is
// the bare historical (D, Bytes) tuple — both components positive — so
// classic density sweeps reproduce their goldens; every other kind
// leads with a distinct negative tag, which no uniform key can start
// with.
const (
	keyScatter   = -1
	keyHotspot   = -2
	keyHalo      = -3
	keySpMV      = -4
	keyPerm      = -5
	keyTranspose = -6
	keyShift     = -7
	keyStencil3D = -8
	keyBitComp   = -9
	keyAllToAll  = -10
)

// AppendKey appends the spec's stream-key identity to buf and returns
// the extended slice. The experiment engine folds these components
// (with the master seed, the sample index, and the algorithm index)
// through composed SplitMix64 mixing to derive every deterministic RNG
// stream; two specs share streams iff their keys are identical.
func (sp Spec) AppendKey(buf []int64) []int64 {
	switch sp.Kind {
	case "uniform":
		return append(buf, int64(sp.D), sp.Bytes)
	case "scatter":
		return append(buf, keyScatter, int64(sp.D), sp.Bytes)
	case "hotspot":
		return append(buf, keyHotspot, int64(sp.D), sp.Bytes, int64(sp.Hot))
	case "halo":
		return append(buf, keyHalo, int64(sp.W), int64(sp.H), sp.Bytes)
	case "spmv":
		return append(buf, keySpMV, int64(sp.NNZ), sp.Bytes)
	case "perm":
		return append(buf, keyPerm, sp.Bytes)
	case "transpose":
		return append(buf, keyTranspose, sp.Bytes)
	case "shift":
		return append(buf, keyShift, int64(sp.K), sp.Bytes)
	case "stencil3d":
		return append(buf, keyStencil3D, int64(sp.X), int64(sp.Y), int64(sp.Z), sp.Bytes)
	case "bitcomp":
		return append(buf, keyBitComp, sp.Bytes)
	default: // alltoall; unknown kinds are rejected by Validate
		return append(buf, keyAllToAll, sp.Bytes)
	}
}

// Key returns the spec's stream-key identity as a fresh slice.
func (sp Spec) Key() []int64 { return sp.AppendKey(nil) }

// Deterministic reports whether the built matrix is independent of the
// RNG (permutation-shaped deterministic exchanges and element-grid
// stencils).
func (sp Spec) Deterministic() bool {
	switch sp.Kind {
	case "transpose", "shift", "stencil3d", "bitcomp", "alltoall":
		return true
	}
	return false
}

// Build constructs the workload's communication matrix for an n-node
// machine. rng drives the randomized kinds (it may be nil for the
// deterministic ones) and is the only source of randomness, so one
// seed reproduces one matrix anywhere. The matrix keeps no build
// scratch, unlike one regenerated through BuildInto.
func (sp Spec) Build(n int, rng *rand.Rand) (*comm.Matrix, error) {
	return comm.Generate(n, func(m *comm.Matrix) error { return sp.BuildInto(m, rng) })
}

// BuildInto regenerates the workload into m (sized for the target
// machine), zeroing it first — the allocation-free form campaign
// workers use to reuse one matrix across every cell they measure.
func (sp Spec) BuildInto(m *comm.Matrix, rng *rand.Rand) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	n := m.N()
	if err := sp.ValidateFor(n); err != nil {
		return err
	}
	switch sp.Kind {
	case "uniform":
		return comm.DRegularInto(m, sp.D, sp.Bytes, rng)
	case "scatter":
		return comm.UniformRandomInto(m, sp.D, sp.Bytes, rng)
	case "hotspot":
		return comm.HotSpotInto(m, sp.D, sp.Bytes, sp.Hot, hotspotProb, rng)
	case "halo":
		mesh, err := comm.NewIrregularMesh(sp.W, sp.H, haloDiagProb, rng)
		if err != nil {
			return err
		}
		return comm.HaloFromPartitionInto(m, mesh.StripPartition(n), mesh.Adj, sp.Bytes)
	case "spmv":
		return comm.SpMVPowerLawInto(m, sp.NNZ, sp.Bytes, rng)
	case "perm":
		return comm.PermutationInto(m, sp.Bytes, rng)
	case "transpose":
		return comm.TransposeInto(m, sp.Bytes)
	case "shift":
		return comm.ShiftInto(m, sp.K, sp.Bytes)
	case "stencil3d":
		return comm.Stencil3DInto(m, sp.X, sp.Y, sp.Z, sp.Bytes)
	case "bitcomp":
		return comm.BitComplementInto(m, sp.Bytes)
	default: // alltoall; Validate rejected everything else
		return comm.AllToAllInto(m, sp.Bytes)
	}
}
