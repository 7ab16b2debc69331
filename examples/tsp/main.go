// TSP: the distributed traveling-salesman computation the paper
// reports as the monitor's first real use (section 5, citing Lai &
// Miller 84).
//
// A master process on red distributes branch-and-bound subtrees to
// worker processes on other machines over stream connections. The
// whole computation runs metered; afterwards the analyses show the
// structure (master as server, workers as clients), the communication
// volume, and the parallelism achieved — the kind of measurement study
// that led Lai & Miller to their performance improvements.
//
// Run with: go run ./examples/tsp [-cities N] [-workers K] [-seed S]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"dpm/internal/analysis"
	"dpm/internal/core"
	"dpm/internal/workloads"
)

func main() {
	cities := flag.Int("cities", 11, "number of cities")
	workers := flag.Int("workers", 3, "number of worker processes")
	seed := flag.Int64("seed", 1, "instance seed")
	flag.Parse()
	if err := run(*cities, *workers, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(cities, workers int, seed int64) error {
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	if err := workloads.RegisterTSP(sys); err != nil {
		return err
	}

	// Sequential baseline, for the comparison the measurement study
	// would make.
	inst := workloads.NewTSPInstance(cities, seed)
	seqStart := time.Now()
	seqCost, _, seqNodes := workloads.SolveSequential(inst)
	seqElapsed := time.Since(seqStart)
	fmt.Printf("sequential: cost=%d nodes=%d (%v)\n", seqCost, seqNodes, seqElapsed)

	ctl, err := sys.NewController("yellow", os.Stdout)
	if err != nil {
		return err
	}
	machines := []string{"green", "blue", "yellow", "red"}
	cmds := []string{
		"filter f1 blue",
		"newjob tsp",
		"setflags tsp all",
		fmt.Sprintf("addprocess tsp red tspmaster %d %d %d", cities, workers, seed),
	}
	for w := 0; w < workers; w++ {
		cmds = append(cmds, fmt.Sprintf("addprocess tsp %s tspworker red", machines[w%len(machines)]))
	}
	cmds = append(cmds, "startjob tsp")
	for _, cmd := range cmds {
		fmt.Printf("<Control> %s\n", cmd)
		ctl.Exec(cmd)
	}
	if err := core.WaitJob(ctl, "tsp", 2*time.Minute); err != nil {
		return err
	}
	ctl.Exec("removejob tsp")

	events, err := sys.WaitTrace("blue", "f1", 10*time.Second, core.TermCount(workers+1))
	if err != nil {
		return err
	}
	fmt.Printf("\ntrace: %d event records\n", len(events))

	st := analysis.Comm(events)
	fmt.Printf("\ncommunication statistics:\n")
	fmt.Printf("  %d sends (%d bytes), %d receives (%d bytes)\n",
		st.Sends, st.BytesSent, st.Recvs, st.BytesRecvd)
	fmt.Printf("  message size histogram (power-of-two buckets): ")
	for b := 0; b <= 16; b++ {
		if n := st.SizeHist[b]; n > 0 {
			fmt.Printf("<=%d:%d ", 1<<b, n)
		}
	}
	fmt.Println()

	mt := analysis.MatchTrace(events, sys.MatchOptions())
	fmt.Printf("\nstructure:\n%s", analysis.Structure(events, mt).Render())

	par := analysis.MeasureParallelism(events)
	fmt.Printf("\nparallelism: %d processes, %d ms CPU over %d ms makespan (speedup %.2f)\n",
		par.Processes, par.TotalCPUMillis, par.MakespanMillis, par.Speedup)
	levels := ""
	for k := 1; k <= par.Processes; k++ {
		levels += fmt.Sprintf(" %d:%dms", k, par.Histogram[k])
	}
	fmt.Printf("concurrency profile (level:duration):%s\n", levels)

	order, err := analysis.HappenedBefore(events, mt)
	if err != nil {
		return err
	}
	fmt.Printf("ordering: %d matched messages, %s of event pairs ordered\n",
		len(mt.Matches), strconv.FormatFloat(order.OrderedFraction()*100, 'f', 1, 64)+"%")

	ctl.Exec("die")
	return nil
}
