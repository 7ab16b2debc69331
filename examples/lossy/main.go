// Lossy: observing datagram loss with the monitor.
//
// The paper's communication model (section 3.1) is explicit that
// datagram delivery "is not guaranteed, though it is likely. Nor is
// the order in which a set of datagrams arrive guaranteed to be the
// order in which they were sent." This example runs a one-way
// datagram storm across a network configured to drop and reorder
// traffic, meters both ends, and uses the trace to quantify the loss —
// the sender's send count minus the receiver's receive count — and to
// show what message matching can and cannot recover under loss.
//
// Run with: go run ./examples/lossy [-count N] [-loss P]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"dpm/internal/analysis"
	"dpm/internal/core"
	"dpm/internal/kernel"
	"dpm/internal/netsim"
	"dpm/internal/trace"
	"dpm/internal/workloads"
)

func main() {
	count := flag.Int("count", 80, "datagrams to send")
	loss := flag.Float64("loss", 0.25, "network loss probability")
	flag.Parse()
	if err := run(*count, *loss); err != nil {
		log.Fatal(err)
	}
}

func run(count int, loss float64) error {
	sys, err := core.NewSystem(core.Config{
		NetOptions: map[string][]netsim.Option{
			"ether0": {netsim.WithLoss(loss), netsim.WithReorder(0.1), netsim.WithSeed(7)},
		},
	})
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	if err := workloads.RegisterStorm(sys); err != nil {
		return err
	}
	ctl, err := sys.NewController("yellow", os.Stdout)
	if err != nil {
		return err
	}
	// The catcher must be listening before the blaster fires: datagrams
	// to an unbound port simply vanish. Two jobs sharing one filter
	// give the controller that ordering.
	for _, cmd := range []string{
		"filter f1 blue",
		"newjob catch",
		"setflags catch send receive immediate",
		"addprocess catch green catcher",
		"startjob catch",
	} {
		fmt.Printf("<Control> %s\n", cmd)
		ctl.Exec(cmd)
	}
	green, err := sys.Machine("green")
	if err != nil {
		return err
	}
	for !green.PortBound(kernel.SockDgram, workloads.StormPort) {
		time.Sleep(time.Millisecond)
	}
	for _, cmd := range []string{
		"newjob storm",
		"setflags storm send receive immediate",
		fmt.Sprintf("addprocess storm red blaster green %d", count),
		"startjob storm",
	} {
		fmt.Printf("<Control> %s\n", cmd)
		ctl.Exec(cmd)
	}

	// The blaster terminates on its own; the catcher runs until the
	// job is stopped and removed.
	deadline := time.Now().Add(time.Minute)
	for {
		done := false
		for _, j := range ctl.Jobs() {
			for _, p := range j.Procs {
				if p.Name == "blaster" && p.State.String() == "killed" {
					done = true
				}
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("blaster never finished")
		}
		time.Sleep(time.Millisecond)
	}
	for _, cmd := range []string{"removejob storm", "stopjob catch", "removejob catch"} {
		fmt.Printf("<Control> %s\n", cmd)
		ctl.Exec(cmd)
	}

	events, err := sys.WaitTrace("blue", "f1", 10*time.Second, func(evs []trace.Event) bool {
		st := analysis.Comm(evs)
		return st.Sends >= int64(count)
	})
	if err != nil {
		return err
	}
	st := analysis.Comm(events)
	fmt.Printf("\ntrace: %d records\n", len(events))
	fmt.Printf("datagrams sent:     %d\n", st.Sends)
	fmt.Printf("datagrams received: %d\n", st.Recvs)
	lost := st.Sends - st.Recvs
	fmt.Printf("observed loss:      %d (%.0f%%, configured %.0f%%)\n",
		lost, float64(lost)/float64(st.Sends)*100, loss*100)

	// The matcher pairs each arrival with the flow's oldest unpaired
	// send, and a trace holds no payloads to check a pair by: after the
	// first loss every later pairing is shifted, so this counts receives
	// paired, not pairs that are right.
	matches := analysis.MatchTrace(events, sys.MatchOptions()).Matches
	fmt.Printf("FIFO pairings:      %d of %d receives (unverified: a loss shifts every later pair)\n", len(matches), st.Recvs)

	ctl.Exec("die")
	return nil
}
