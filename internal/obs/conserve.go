package obs

import "strings"

// conservation is the conservation table, over the counters of every
// machine merged. In each law the counters left of "=" count the same
// items as those right of it — every record a query's scan reads is
// skipped on its Meta, parsed, or evaluated as stored typed; every
// record a store appends is stored typed or as text — so that the sums
// agree in any snapshot where nothing is in flight. A residual that
// stays non-zero is an item counted twice or never.
var conservation = []string{
	"query.records = query.records_skipped + query.records_parsed + query.records_typed",
	"store.records_typed + store.records_text = store.appends",
}

// Residuals evaluates the conservation table over the snapshot's
// counters: one entry per law that does not hold, named by the law, its
// value the left side less the right. Counters are captured one by one,
// so a snapshot of a busy machine can catch a law between its sides.
func (s *Snapshot) Residuals() []NamedValue {
	var out []NamedValue
	for _, law := range conservation {
		r, sign := int64(0), int64(1)
		for _, term := range strings.Fields(law) {
			switch term {
			case "=":
				sign = -1
			case "+":
			default:
				v, _ := s.Get(term)
				r += sign * v
			}
		}
		if r != 0 {
			out = append(out, NamedValue{Name: law, Value: r})
		}
	}
	return out
}
