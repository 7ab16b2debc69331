// Quickstart: the smallest complete use of the distributed programs
// monitor.
//
// It builds a simulated four-machine 4.2BSD cluster with meterdaemons,
// runs a two-process client/server computation under a job, meters
// every event type, and then runs the three analysis stages over the
// collected trace — the metering → filtering → analysis pipeline of
// the paper's Figure 2.1.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"dpm/internal/analysis"
	"dpm/internal/core"
	"dpm/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A cluster of four machines on one network, each with a
	// meterdaemon and the standard filter files.
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	if err := workloads.RegisterPingPong(sys); err != nil {
		return err
	}

	// The user's view (section 4.3): a controller on yellow, driven by
	// the same command set as the paper's manual.
	ctl, err := sys.NewController("yellow", os.Stdout)
	if err != nil {
		return err
	}
	for _, cmd := range []string{
		"filter f1 blue",                 // create a filter process on blue
		"newjob demo",                    // create a job
		"setflags demo all",              // meter every event type
		"addprocess demo green ponger 5", // the server, 5 rounds
		"addprocess demo red pinger green 5",
		"startjob demo",
	} {
		fmt.Printf("<Control> %s\n", cmd)
		ctl.Exec(cmd)
	}
	if err := core.WaitJob(ctl, "demo", 30*time.Second); err != nil {
		return err
	}
	ctl.Exec("removejob demo")

	// Retrieve and analyze the trace.
	events, err := sys.WaitTrace("blue", "f1", 10*time.Second, core.TermCount(2))
	if err != nil {
		return err
	}
	fmt.Printf("\ntrace: %d event records\n\n", len(events))

	st := analysis.Comm(events)
	fmt.Printf("communication statistics:\n")
	fmt.Printf("  sends: %d (%d bytes)   receives: %d (%d bytes)\n",
		st.Sends, st.BytesSent, st.Recvs, st.BytesRecvd)
	for _, pc := range st.Procs {
		if pc.Active() {
			fmt.Printf("  %s: %d sends / %d recvs\n", pc.Key(), pc.Sends, pc.Recvs)
		}
	}

	mt := analysis.MatchTrace(events, sys.MatchOptions())
	fmt.Printf("\nstructure:\n%s", analysis.Structure(events, mt).Render())

	order, err := analysis.HappenedBefore(events, mt)
	if err != nil {
		return err
	}
	fmt.Printf("\nevent ordering: %d matched messages, %.0f%% of event pairs ordered\n",
		len(mt.Matches), order.OrderedFraction()*100)

	par := analysis.MeasureParallelism(events)
	fmt.Printf("parallelism: %d processes, %d ms CPU over %d ms makespan (speedup %.2f)\n",
		par.Processes, par.TotalCPUMillis, par.MakespanMillis, par.Speedup)

	fmt.Printf("<Control> die\n")
	ctl.Exec("die")
	return nil
}
