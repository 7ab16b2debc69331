package daemon

import "testing"

// TestEveryRequestHasSlug: every request type is counted under its own
// daemon.req.<type> and timed under its own daemon.rtt.<type>, not
// under .unknown.
func TestEveryRequestHasSlug(t *testing.T) {
	for _, mt := range []MsgType{TCreateReq, TSetFlagsReq, TStartReq, TStopReq, TKillReq, TAcquireReq, TGetFileReq,
		TReleaseReq, TListReq, TStdinReq, TQueryReq, TStatsReq, TAggReq} {
		if reqCounterName(mt) == "daemon.req.unknown" || rttHistName(mt) == "daemon.rtt.unknown" {
			t.Errorf("request type %d has no slug", mt)
		}
	}
}
