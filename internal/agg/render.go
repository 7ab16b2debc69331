package agg

import (
	"cmp"
	"slices"
	"strconv"

	"dpm/internal/obs"
)

// Row is one rendered group: the stable, machine-readable view of a
// merged partial under its spec (the rows of dpquery -json).
type Row struct {
	// Window is the window start (cpuTime ms); omitted when the spec
	// has no window.
	Window uint64 `json:"window,omitempty"`
	// Key maps each group-by field to its value.
	Key map[string]uint64 `json:"key,omitempty"`
	// Count is the records in the group; Value the operator's answer
	// (count, sum, min, max, rate/s, or the percentile bound).
	Count int64   `json:"count"`
	Value float64 `json:"value"`
}

// value computes one group's answer under the spec's operator.
func (s *Spec) value(g *Group, p *Partial) float64 {
	switch s.Fn {
	case FnCount:
		return float64(g.Count)
	case FnSum:
		return float64(g.Sum)
	case FnMin:
		return float64(g.Min)
	case FnMax:
		return float64(g.Max)
	case FnRate:
		ms := s.WindowMS
		if ms == 0 {
			if p.MaxTime < p.MinTime {
				return 0
			}
			ms = int64(p.MaxTime-p.MinTime) + 1
		}
		return float64(g.Count) * 1000 / float64(ms)
	case FnP50, FnP95, FnP99: // obs.HistValue's nearest-rank upper bound
		var buckets [obs.NumBuckets]obs.BucketCount // an empty bucket moves no rank
		for b, n := range g.hist {
			buckets[b] = obs.BucketCount{Bucket: uint8(b), Count: n}
		}
		hv := obs.HistValue{Count: g.Count, Buckets: buckets[:len(g.hist)]}
		return float64(hv.Quantile(s.Fn.Quantile()))
	}
	return 0
}

// answer computes each group's value under s into p.vals and returns
// the places of the groups the answer lists, in its order: canonical
// key order, or for a top spec the k heaviest, heaviest first, with
// canonical key order breaking value ties so the cut is deterministic.
func (p *Partial) answer(s *Spec) []int32 {
	p.vals, p.order = p.vals[:0], p.order[:0]
	for i := range p.Groups {
		p.vals = append(p.vals, s.value(&p.Groups[i], p))
		p.order = append(p.order, int32(i))
	}
	if s.TopK > 0 {
		slices.SortStableFunc(p.order, func(i, j int32) int { return cmp.Compare(p.vals[j], p.vals[i]) })
		p.order = p.order[:min(len(p.order), s.TopK)]
	}
	return p.order
}

// Rows returns the answer's rows under s, in the answer's order.
func (p *Partial) Rows(s *Spec) []Row {
	order := p.answer(s)
	rows := make([]Row, len(order))
	for j, i := range order {
		g := &p.Groups[i]
		rows[j] = Row{Window: g.Key.Window, Key: make(map[string]uint64, len(s.By)), Count: g.Count, Value: p.vals[i]}
		for k, f := range s.By {
			rows[j].Key[f] = g.Key.Vals[k]
		}
	}
	return rows
}

// AppendTable appends the answer under s as a readable table: the
// spec, one row per group (window and group-by columns first, then the
// value and the record count), and a summary line carrying the counters
// that mark a degraded or approximate answer. Values keep the
// operator's natural precision: rates three decimals, everything else
// integral.
func (p *Partial) AppendTable(b []byte, s *Spec) []byte {
	b = obs.AppendRight(append(append(b, s.String()...), '\n'), "", 12)
	if s.WindowMS > 0 {
		b = append(obs.AppendRight(b, "window", 12), ' ')
	}
	for _, f := range s.By {
		b = append(obs.AppendRight(b, f, 12), ' ')
	}
	b = append(obs.AppendRight(append(obs.AppendRight(b, s.Fn.String(), 14), ' '), "count", 10), '\n')
	prec := -1
	if s.Fn == FnRate {
		prec = 3
	}
	var num [32]byte
	for _, i := range p.answer(s) {
		g := &p.Groups[i]
		b = obs.AppendRight(b, "", 12)
		if s.WindowMS > 0 {
			b = append(obs.AppendRight(b, strconv.AppendUint(num[:0], g.Key.Window, 10), 12), ' ')
		}
		for _, v := range g.Key.Vals[:len(s.By)] {
			b = append(obs.AppendRight(b, strconv.AppendUint(num[:0], v, 10), 12), ' ')
		}
		b = append(obs.AppendRight(b, strconv.AppendFloat(num[:0], p.vals[i], 'f', prec, 64), 14), ' ')
		b = append(obs.AppendRight(b, strconv.AppendInt(num[:0], g.Count, 10), 10), '\n')
	}
	b = strconv.AppendInt(append(b, "groups="...), int64(len(p.Groups)), 10)
	b = strconv.AppendInt(append(b, " records="...), p.Records, 10)
	if p.Skipped > 0 {
		b = strconv.AppendInt(append(b, " skipped="...), p.Skipped, 10)
	}
	if p.Dropped > 0 {
		b = append(strconv.AppendInt(append(b, " dropped="...), p.Dropped, 10), " (approximate: group cap hit)"...)
	}
	return append(b, '\n')
}
