// Command bench is the monitor's one end-to-end benchmark. It boots
// real core.System clusters inside this process, drives four workloads
// through them from outside — controller commands in, files and
// counters out — checks every workload's output against a reference,
// and prints every metric by name with its unit. See README.md.
//
//	go run -C bench . -seed 1 -out results.json          whole suite, untraced
//	go run -C bench . -seed 1 -trace 1                   ... and the per-layer numbers
//	go run -C bench . --workload query_mix --seed 3 --seconds 15 --trace 0
//	go run -C bench . compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "run only this workload and end with the one-line JSON result (default: all four)")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: message lengths, query parameters and operation order")
	flag.Float64Var(&opt.seconds, "seconds", defaultSeconds, "budget per workload; closed-loop workloads do a fixed amount of work per budget second")
	flag.IntVar(&opt.trace, "trace", 0, "1 repeats each workload with harness-side spans and boundary replays and reports the per-layer metrics")
	flag.StringVar(&opt.out, "out", "", "write the full result (environment, every metric, sample counts) to this JSON file")
	flag.StringVar(&opt.ledger, "ledger", "", "append one line per workload run to this JSON-lines file")
	flag.StringVar(&opt.spans, "spans", "spans.jsonl", "where a traced run writes its spans")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	code, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}
