package trace

import "dpm/internal/meter"

// CanonicalLines lets corpus_test.go, which must sit outside the package
// to import internal/filter, hold the corpus to what the filter writes.
var CanonicalLines = canonicalLines

// NameField is NameOf by name, for the tests that ask a view by name.
func (v *View) NameField(name string) (meter.Name, bool) {
	r := NewFieldRef(name)
	return v.NameOf(&r)
}
