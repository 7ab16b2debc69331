package analysis

import (
	"fmt"
	"sort"
	"strings"

	"dpm/internal/trace"
)

// Report renders the complete analysis suite over a trace as a
// human-readable text report — the output of the analyze tool and the
// programmatic equivalent of running each analysis by hand.
func Report(events []trace.Event, opts *MatchOptions) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d event records\n\n", len(events))

	st := Comm(events)
	fmt.Fprintf(&b, "communication statistics\n")
	fmt.Fprintf(&b, "  sends:    %6d  (%d bytes)\n", st.Sends, st.BytesSent)
	fmt.Fprintf(&b, "  receives: %6d  (%d bytes)\n", st.Recvs, st.BytesRecvd)
	for i := range st.Procs {
		if pc := &st.Procs[i]; pc.Active() {
			fmt.Fprintf(&b, "  %-10s %4d sends %4d recvs %4d recv-calls %3d sockets %2d forks\n",
				pc.Key().String()+":", pc.Sends, pc.Recvs, pc.RecvCalls, pc.Sockets, pc.Forks)
		}
	}
	if st.Sends > 0 {
		fmt.Fprintf(&b, "  message sizes (power-of-two buckets):")
		for bk, n := range st.SizeHist {
			if n != 0 {
				fmt.Fprintf(&b, " <=%d:%d", uint64(1)<<bk, n)
			}
		}
		b.WriteByte('\n')
	}

	mt := MatchTrace(events, opts)
	fmt.Fprintf(&b, "\nstructure\n%s", Structure(events, mt).Render())

	par := MeasureParallelism(events)
	fmt.Fprintf(&b, "\nparallelism\n")
	fmt.Fprintf(&b, "  processes: %d\n", par.Processes)
	fmt.Fprintf(&b, "  total CPU: %d ms over a %d ms makespan (speedup %.2f)\n",
		par.TotalCPUMillis, par.MakespanMillis, par.Speedup)
	for k := 1; k <= par.Processes; k++ {
		if par.Histogram[k] > 0 {
			fmt.Fprintf(&b, "  %d processes live: %d ms\n", k, par.Histogram[k])
		}
	}

	waits := WaitingProfile(events)
	if len(waits) > 0 {
		fmt.Fprintf(&b, "\nblocked time (receivecall -> receive)\n")
		for _, k := range sortedProcKeys(waits) {
			w := waits[k]
			fmt.Fprintf(&b, "  %-10s %4d waits, %5d ms blocked (mean %.1f ms, max %d ms)",
				k.String()+":", w.Waits, w.BlockedMillis, w.Mean(), w.MaxBlockedMillis)
			if w.Unmatched > 0 {
				fmt.Fprintf(&b, ", %d still blocked at end of trace", w.Unmatched)
			}
			b.WriteByte('\n')
		}
	}

	if sites := CallSites(events); len(sites) > 0 {
		fmt.Fprintf(&b, "\nbusiest call sites (process, pc)\n")
		for i, s := range sites {
			if i == 8 {
				fmt.Fprintf(&b, "  ... %d more\n", len(sites)-i)
				break
			}
			fmt.Fprintf(&b, "  %-10s pc=%#x: %d events, %d bytes\n", s.Proc.String()+":", s.PC, s.Events, s.Bytes)
		}
	}

	order, err := HappenedBefore(events, mt)
	if err != nil {
		return "", err
	}
	rec := RecoverRecipients(events, mt.Conns)
	fmt.Fprintf(&b, "\nevent ordering\n")
	fmt.Fprintf(&b, "  matched messages:      %d\n", len(mt.Matches))
	fmt.Fprintf(&b, "  recovered recipients:  %d\n", len(rec))
	fmt.Fprintf(&b, "  ordered event pairs:   %.1f%%\n", order.OrderedFraction()*100)
	return b.String(), nil
}

// sortedProcKeys returns map keys in (machine, pid) order; it accepts
// any map keyed by ProcKey.
func sortedProcKeys[V any](m map[ProcKey]V) []ProcKey {
	keys := make([]ProcKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}
