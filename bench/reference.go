package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

// The reference side of the read workloads: the flat log parsed once,
// and every query answered again by the most naive code that can — a
// loop over all records — so that a wrong answer from the store, the
// query engine, the aggregation push-down or the reply path shows.

// refRecord is one flat-log record as the reference sees it.
type refRecord struct {
	machine int
	cpuTime int64
	typ     meter.Type
	pid     int
	msgLen  int
	hasLen  bool
	line    string
}

// parseReference parses a filter's flat log into reference records.
func parseReference(log []byte) ([]refRecord, error) {
	var recs []refRecord
	for _, line := range bytes.Split(log, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		e, err := trace.ParseOne(line)
		if err != nil {
			return nil, fmt.Errorf("flat log line %q: %w", line, err)
		}
		ml, has := e.Fields["msgLength"]
		recs = append(recs, refRecord{
			machine: e.Machine, cpuTime: e.CPUTime, typ: e.Type, pid: e.PID(),
			msgLen: int(ml), hasLen: has, line: string(line),
		})
	}
	return recs, nil
}

// answer is a record query's reference: how many records match and
// the checksum of the matching lines in sorted order.
type answer struct {
	matched int
	crc     uint32
}

func answerOf(lines []string) answer {
	sort.Strings(lines)
	h := crc32.NewIEEE()
	for _, l := range lines {
		_, _ = h.Write([]byte(l)) // a hash's Write cannot fail
		_, _ = h.Write([]byte{'\n'})
	}
	return answer{matched: len(lines), crc: h.Sum32()}
}

// selectRef answers a record query naively.
func selectRef(recs []refRecord, keep func(*refRecord) bool) answer {
	var lines []string
	for i := range recs {
		if keep(&recs[i]) {
			lines = append(lines, recs[i].line)
		}
	}
	return answerOf(lines)
}

// answerOfFile is the same summary of a query's result file.
func answerOfFile(data []byte) answer {
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	return answerOf(lines)
}

// aggRow is one row of an aggregate table, canonically: the window and
// group values, then value and count.
type aggRow struct {
	key   string
	value int64
	count int64
}

func (r aggRow) String() string { return fmt.Sprintf("%s=%d/%d", r.key, r.value, r.count) }

// groupRef computes a group-by naively: key names the group of a
// record ("" leaves it out), value is what is summed (1 for count).
// topK > 0 keeps the heaviest groups, ties broken by key order as the
// engine documents.
func groupRef(recs []refRecord, key func(*refRecord) (string, bool), value func(*refRecord) int64, topK int) []string {
	groups := make(map[string]*aggRow)
	for i := range recs {
		k, ok := key(&recs[i])
		if !ok {
			continue
		}
		g := groups[k]
		if g == nil {
			g = &aggRow{key: k}
			groups[k] = g
		}
		g.value += value(&recs[i])
		g.count++
	}
	rows := make([]aggRow, 0, len(groups))
	for _, g := range groups {
		rows = append(rows, *g)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	if topK > 0 {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].value > rows[j].value })
		if len(rows) > topK {
			rows = rows[:topK]
		}
	}
	return canonicalRows(rows)
}

func canonicalRows(rows []aggRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// parseAggTable reads a rendered aggregate table back into canonical
// rows. Every row line is numbers only: the key columns, then the
// value and the count.
func parseAggTable(data []byte) ([]string, error) {
	var rows []aggRow
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		return nil, fmt.Errorf("aggregate table has %d lines", len(lines))
	}
	for _, line := range lines[2 : len(lines)-1] { // skip spec, header, summary
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("aggregate row %q", line)
		}
		value, err1 := strconv.ParseInt(f[len(f)-2], 10, 64)
		count, err2 := strconv.ParseInt(f[len(f)-1], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("aggregate row %q", line)
		}
		rows = append(rows, aggRow{key: strings.Join(f[:len(f)-2], ","), value: value, count: count})
	}
	return canonicalRows(rows), nil
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
