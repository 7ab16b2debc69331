package live

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dpm/internal/analysis"
)

// referenceCurve is the sweep as (*ParState).Curve ran it before the
// two-cursor walk: one list of (time, ±1) edges sorted with starts
// ahead of ends at equal times. Kept as the oracle — slow, and plainly
// the definition.
func referenceCurve(p *ParState) *analysis.Parallelism {
	out := &analysis.Parallelism{Histogram: make(map[int]int64)}
	if len(p.Procs) == 0 {
		return out
	}
	out.Processes = len(p.Procs)
	minT, maxT := p.Procs[0].First, p.Procs[0].Last
	type edge struct {
		t     int64
		delta int
	}
	edges := make([]edge, 0, 2*len(p.Procs))
	for i := range p.Procs {
		iv := &p.Procs[i]
		out.TotalCPUMillis += iv.MaxCPU
		if iv.First < minT {
			minT = iv.First
		}
		if iv.Last > maxT {
			maxT = iv.Last
		}
		edges = append(edges, edge{iv.First, +1}, edge{iv.Last, -1})
	}
	out.MakespanMillis = maxT - minT
	if out.MakespanMillis > 0 {
		out.Speedup = float64(out.TotalCPUMillis) / float64(out.MakespanMillis)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta > edges[j].delta // starts before ends
	})
	level := 0
	prev := int64(-1)
	for _, e := range edges {
		if prev >= 0 && e.t > prev && level > 0 {
			out.Histogram[level] += e.t - prev
		}
		level += e.delta
		prev = e.t
	}
	return out
}

func checkCurve(t *testing.T, procs []ProcInterval) {
	t.Helper()
	st := &ParState{Procs: procs}
	got, want := st.Curve(), referenceCurve(st)
	// NaN != NaN; the speedup is a quotient of two fields compared anyway.
	if math.IsNaN(got.Speedup) && math.IsNaN(want.Speedup) {
		got.Speedup, want.Speedup = 0, 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("curve over %d intervals:\n got %+v\nwant %+v\nintervals %+v", len(procs), got, want, procs)
	}
}

// adversarialIntervals are the shapes a merged or corrupt payload can
// hold that a live collector never writes.
var adversarialIntervals = [][]ProcInterval{
	nil,
	{{First: 5, Last: 5}}, // zero length
	{{First: 0, Last: 0}, {First: 0, Last: 0}},                      // all edges at one time
	{{First: 1, Last: 9}, {First: 9, Last: 12}},                     // an end meets a start
	{{First: 3, Last: 7}, {First: 3, Last: 7}, {First: 7, Last: 7}}, // ties on both sides
	{{First: 20, Last: 5}},                                          // First > Last
	{{First: 0, Last: 10}, {First: 0, Last: 10}, {First: 20, Last: 5}},
	{{First: 30, Last: 10}, {First: 25, Last: 12}, {First: 11, Last: 40}},
	{{First: -50, Last: -10}, {First: -20, Last: 30}, {First: -1, Last: 0}}, // negative times
	{{First: 1 << 62, Last: math.MaxInt64}, {First: (1 << 62) + 5, Last: math.MaxInt64 - 1}},
	{{First: math.MinInt64, Last: math.MaxInt64}, {First: 0, Last: 1}}, // a span that overflows
	{{First: 4, Last: 8, MaxCPU: math.MaxInt64}, {First: 4, Last: 8, MaxCPU: 1}},
}

// TestCurveMatchesReference checks the two-cursor sweep against the
// sort-based one on the adversarial shapes and on random intervals
// drawn from a few time ranges, tie-heavy ones included.
func TestCurveMatchesReference(t *testing.T) {
	for _, procs := range adversarialIntervals {
		checkCurve(t, procs)
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 400; round++ {
		span := []int64{4, 50, 5000, math.MaxInt64}[round%4]
		procs := make([]ProcInterval, rng.Intn(60))
		for i := range procs {
			a, b := rng.Int63n(span), rng.Int63n(span)
			switch rng.Intn(8) {
			case 0: // inverted
				a, b = max(a, b), min(a, b)
			case 1:
				a = -a
			default:
				a, b = min(a, b), max(a, b)
			}
			procs[i] = ProcInterval{First: a, Last: b, MaxCPU: rng.Int63n(1000), Terminated: rng.Intn(2) == 0}
		}
		checkCurve(t, procs)
	}
}

// FuzzCurve feeds the sweep intervals cut from raw bytes, sixteen per
// interval, seeded with the adversarial shapes.
func FuzzCurve(f *testing.F) {
	for _, procs := range adversarialIntervals {
		var b []byte
		for _, iv := range procs {
			b = binary.LittleEndian.AppendUint64(b, uint64(iv.First))
			b = binary.LittleEndian.AppendUint64(b, uint64(iv.Last))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		procs := make([]ProcInterval, 0, len(data)/16)
		for ; len(data) >= 16; data = data[16:] {
			procs = append(procs, ProcInterval{
				First:  int64(binary.LittleEndian.Uint64(data)),
				Last:   int64(binary.LittleEndian.Uint64(data[8:])),
				MaxCPU: int64(data[0]),
			})
		}
		checkCurve(t, procs)
	})
}
