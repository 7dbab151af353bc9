package ipsc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"unsched/internal/comm"
	"unsched/internal/sched"
	"unsched/internal/topo"
)

// simFixture is one simulated run whose Result was recorded with the
// full-FIFO-rescan simulator the resource-indexed wake-up replaced. The
// float fields are math.Float64bits images so the comparison is exact.
type simFixture struct {
	spec      string
	lazy      bool // lazy route table (routes generated per probe)
	d         int
	bytes     int64
	run       string // schedule/protocol pair, see runFixture
	makespan  uint64
	wait      uint64
	transfers int
	exchanges int
}

// simFixtures covers every protocol on the paper's machine (long and
// short messages), the S1/S2 scheduler pairs at the service caps on
// dense and lazy route tables, a plain mesh, and non-square meshes and
// tori (one with odd sides, wrapping on both axes), where swapping the
// width and height anywhere in the channel layout would show.
var simFixtures = []simFixture{
	{"cube:6", false, 16, 4096, "RS_NL/S1", 0x40f182db22d0e55d, 0x411ae283e76c8b38, 908, 58},
	{"cube:6", false, 16, 4096, "RS_N/S2", 0x40f022ae147ae145, 0x413a335dac0830fc, 1024, 0},
	{"cube:6", false, 16, 4096, "LP", 0x40fa2af0c49ba5dd, 0x0, 0, 2016},
	{"cube:6", false, 16, 4096, "AC", 0x40f71cdc6a7ef9d5, 0x414585775e353f66, 1024, 0},
	{"cube:6", false, 16, 4096, "AC_async", 0x40e9d8d6872b0209, 0x41717770753f7ce6, 1024, 0},
	{"cube:6", false, 16, 64, "AC", 0x40aea770a3d70a38, 0x40ef2b15c28f5c21, 1024, 0},
	{"cube:6", false, 16, 64, "RS_N/S2", 0x40b1333d70a3d707, 0x40e1101c28f5c280, 1024, 0},
	{"mesh:16x16", false, 8, 4096, "RS_N/S2", 0x40f74d4f5c28f5bd, 0x416aa504bc28f584, 2048, 0},
	{"cube:10", false, 8, 4096, "RS_N/S2", 0x40e7a6fc6a7ef9d9, 0x416f35ec1893733c, 8192, 0},
	{"cube:10", false, 8, 4096, "RS_NL/S1", 0x40eac0b6872b0209, 0x414ede4eef9db1da, 8170, 11},
	{"torus:32x32", false, 8, 4096, "RS_N/S2", 0x40fff6bdb22d0e4d, 0x4192b51978083042, 8192, 0},
	{"torus:32x32", false, 8, 4096, "RS_NL/S1", 0x41088d352f1a9fb7, 0x416b77a4d91685e7, 8172, 10},
	{"cube:12", true, 8, 4096, "RS_N/S2", 0x40e94b2dd2f1a9f9, 0x4190e0035cfdf277, 32768, 0},
	{"cube:12", true, 8, 4096, "RS_NL/S1", 0x40ee807958106249, 0x417080b931cabf64, 32744, 12},
	{"torus:64x64", true, 8, 4096, "RS_N/S2", 0x410f3638b4395806, 0x41c33d59b52c0ba0, 32768, 0},
	{"torus:64x64", true, 8, 4096, "RS_NL/S1", 0x41164bc4ed91686b, 0x419af018d7020a96, 32752, 8},
	{"torus:64x16", true, 8, 4096, "RS_NL/S1", 0x41117d4676c8b434, 0x416e183c56041730, 8154, 19},
	{"torus:64x16", true, 8, 4096, "RS_N/S2", 0x4107ed447ae147a6, 0x419dadedd9fbe5df, 8192, 0},
	{"mesh:32x8", false, 8, 4096, "RS_NL/S1", 0x410a69daf1a9fbdf, 0x41432f44bc6a7ebe, 2010, 19},
	{"mesh:32x8", false, 8, 4096, "RS_N/S2", 0x4100db79ba5e353b, 0x4176ad82c0a3d6a5, 2048, 0},
	{"torus:7x5", false, 8, 4096, "RS_NL/S1", 0x40e41fb0e5604189, 0x40fc8c0db22d0e4e, 234, 23},
}

// runFixture builds the fixture's machine, matrix and schedule from
// fixed seeds and simulates it on a route-table-backed Machine.
func runFixture(t *testing.T, f simFixture) Result {
	t.Helper()
	spec, err := topo.ParseSpec(f.spec)
	if err != nil {
		t.Fatal(err)
	}
	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	table := topo.NewRouteTable
	if f.lazy {
		table = topo.NewRouteTableLazy
	}
	rt := table(net)
	mat, err := comm.UniformRandom(net.Nodes(), f.d, f.bytes, rand.New(rand.NewSource(1994)))
	if err != nil {
		t.Fatal(err)
	}
	core := sched.NewCoreForTable(rt)
	rng := rand.New(rand.NewSource(7))
	m, err := NewMachine(rt, params())
	if err != nil {
		t.Fatal(err)
	}
	var (
		res Result
		s   *sched.Schedule
		o   *sched.ACOrder
	)
	switch f.run {
	case "RS_NL/S1":
		if s, err = core.RSNL(mat, rng); err == nil {
			res, err = m.RunS1(s)
		}
	case "RS_N/S2":
		if s, err = core.RSN(mat, rng); err == nil {
			res, err = m.RunS2(s)
		}
	case "LP":
		if s, err = core.LP(mat); err == nil {
			res, err = m.RunLP(s)
		}
	case "AC":
		if o, err = core.AC(mat); err == nil {
			res, err = m.RunAC(o, mat)
		}
	case "AC_async":
		if o, err = core.AC(mat); err == nil {
			res, err = m.RunACAsync(o, mat)
		}
	default:
		t.Fatalf("unknown fixture run %q", f.run)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultsMatchRecordedFixtures pins the simulator's Results bit for
// bit against values recorded before the resource-indexed wake-up
// replaced the full FIFO re-scan: the wake-up must change how often
// blocked attempts are probed, never which attempt claims a resource
// or when.
func TestResultsMatchRecordedFixtures(t *testing.T) {
	for _, f := range simFixtures {
		f := f
		t.Run(fmt.Sprintf("%s/d%d/%dB/%s", f.spec, f.d, f.bytes, f.run), func(t *testing.T) {
			got := runFixture(t, f)
			if math.Float64bits(got.MakespanUS) != f.makespan ||
				math.Float64bits(got.ResourceWaitUS) != f.wait ||
				got.Transfers != f.transfers || got.Exchanges != f.exchanges {
				t.Errorf("got {%#x, %#x, %d, %d}, want {%#x, %#x, %d, %d}",
					math.Float64bits(got.MakespanUS), math.Float64bits(got.ResourceWaitUS), got.Transfers, got.Exchanges,
					f.makespan, f.wait, f.transfers, f.exchanges)
			}
		})
	}
}
