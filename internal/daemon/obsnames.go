package daemon

import (
	"cmp"
	"strings"
)

// reqNames holds, per request type, the counter the daemon counts its
// arrivals under and the histogram the calling machine times its round
// trips in: daemon.req.<slug> and daemon.rtt.<slug>, the slug being the
// type's name (typeNames) without " request". They are built once, so
// request accounting builds no string.
var reqNames = func() map[MsgType][2]string {
	names := make(map[MsgType][2]string)
	for t, name := range typeNames {
		if slug, ok := strings.CutSuffix(name, " request"); ok {
			names[t] = [2]string{"daemon.req." + slug, "daemon.rtt." + slug}
		}
	}
	return names
}()

func reqCounterName(t MsgType) string { return cmp.Or(reqNames[t][0], "daemon.req.unknown") }

func rttHistName(t MsgType) string { return cmp.Or(reqNames[t][1], "daemon.rtt.unknown") }
