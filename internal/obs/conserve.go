package obs

import "strings"

// conservation is the conservation table, over the counters of every
// machine merged. In each law the counters left of "=" count the same
// items as those right of it — every record a query's scan decodes is
// skipped on its Meta or read typed by the rules, each counted where the
// scan decides; every record a store stages typed is appended, counted
// once the backend holds it — so that the sums agree in any snapshot
// where nothing is in flight. A residual that stays non-zero is an item
// counted twice or never.
var conservation = []string{
	"query.records = query.records_skipped + query.records_typed",
	"store.records_typed = store.appends",
}

// lawTerms are the table's terms in table order: each one's law, name,
// and sign, + left of "=" and - right of it.
var lawTerms = func() (ts []lawTerm) {
	for law, text := range conservation {
		sign := int64(1)
		for _, f := range strings.Fields(text) {
			switch f {
			case "=":
				sign = -1
			case "+":
			default:
				ts = append(ts, lawTerm{law, f, sign})
			}
		}
	}
	return ts
}()

type lawTerm struct {
	law  int
	name string
	sign int64
}

// termValues holds what Get reads of each of lawTerms: the first
// counter of its name, else the first gauge.
type termValues struct {
	v    [2][8]int64
	seen [2][8]bool
}

// note records the value of counter or gauge name (list), if it is the
// first of its name and a term of the table.
func (t *termValues) note(list int, name []byte, v int64) {
	for i := range lawTerms {
		if string(name) == lawTerms[i].name && !t.seen[list][i] {
			t.v[list][i], t.seen[list][i] = v, true
		}
	}
}

// residuals is Residuals over the values noted.
func (t *termValues) residuals() []NamedValue {
	var r [8]int64
	for i, term := range lawTerms {
		v := t.v[listGauges][i]
		if t.seen[listCounters][i] {
			v = t.v[listCounters][i]
		}
		r[term.law] += term.sign * v
	}
	var out []NamedValue
	for law, text := range conservation {
		if r[law] != 0 {
			out = append(out, NamedValue{Name: text, Value: r[law]})
		}
	}
	return out
}

// Residuals evaluates the conservation table over the snapshot's
// counters: one entry per law that does not hold, named by the law, its
// value the left side less the right. Counters are captured one by one,
// so a snapshot of a busy machine can catch a law between its sides.
func (s *Snapshot) Residuals() []NamedValue {
	_, r, _ := AppendReport(nil, s.MarshalBinary())
	return r
}
