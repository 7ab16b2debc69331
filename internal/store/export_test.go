package store

// BodyDecoded reports whether a sealed v2 segment's footer body —
// dictionary and block table — has been decoded yet, for the tests that
// pin that a pruned segment never pays for it.
func (rs *ReaderSegment) BodyDecoded() bool { return rs.v2.Dict != nil || rs.v2.Blocks != nil }

// UndecodableBody exposes the crafted-footer fixture to the external
// tests that drive it through internal/query and internal/agg.
var UndecodableBody = undecodableBody
