package trace

// CanonicalLines lets corpus_test.go, which must sit outside the package
// to import internal/filter, hold the corpus to what the filter writes.
var CanonicalLines = canonicalLines
