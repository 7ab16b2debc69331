package obs

import "testing"

// TestResiduals: a law holds over counters that balance, across the
// machines a merge sums, with counters that were never registered
// reading zero; a law that does not hold is reported once, by its text,
// with its left side less its right.
func TestResiduals(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("query.records").Add(10)
	a.Counter("query.records_skipped").Add(4)
	a.Counter("query.records_typed").Add(6)
	b.Counter("store.appends").Add(7)
	b.Counter("store.records_typed").Add(7)
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if r := s.Residuals(); len(r) != 0 {
		t.Fatalf("balanced counters give residuals %v", r)
	}
	a.Counter("query.records").Add(3)
	b.Counter("store.appends").Inc()
	s = a.Snapshot()
	s.Merge(b.Snapshot())
	want := []NamedValue{
		{"query.records = query.records_skipped + query.records_typed", 3},
		{"store.records_typed = store.appends", -1},
	}
	if r := s.Residuals(); len(r) != 2 || r[0] != want[0] || r[1] != want[1] {
		t.Fatalf("residuals %v, want %v", r, want)
	}
}
