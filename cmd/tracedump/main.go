// tracedump decodes a trace and prints one line per event record.
//
// Input is a standard-filter text log, or with -binary a raw meter
// byte stream in the Appendix A message formats (as saved from a meter
// connection). With no file argument it reads standard input.
//
//	tracedump [-binary] [file]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"dpm/internal/trace"
)

func main() {
	binary := flag.Bool("binary", false, "input is a raw meter byte stream (Appendix A formats)")
	event := flag.String("event", "", "only print records of this event type (e.g. SEND)")
	machine := flag.Int("machine", 0, "only print records from this machine id (0 = all)")
	flag.Parse()

	var data []byte
	var err error
	switch flag.NArg() {
	case 0:
		data, err = io.ReadAll(os.Stdin)
	case 1:
		data, err = os.ReadFile(flag.Arg(0))
	default:
		log.Fatal("usage: tracedump [-binary] [file]")
	}
	if err != nil {
		log.Fatal(err)
	}

	var events []trace.Event
	if *binary {
		events, err = trace.ParseBinary(data)
	} else {
		events, err = trace.ParseLog(data)
	}
	if err != nil && !errors.Is(err, trace.ErrTruncated) {
		log.Fatal(err)
	} else if err != nil {
		log.Print(err) // the records before the tear are still printed
		defer os.Exit(1)
	}
	printed := 0
	for i := range events {
		if *event != "" && events[i].Event != strings.ToUpper(*event) {
			continue
		}
		if *machine != 0 && events[i].Machine != *machine {
			continue
		}
		fmt.Printf("%5d %s\n", events[i].Seq, events[i].Format())
		printed++
	}
	fmt.Fprintf(os.Stderr, "%d of %d event records\n", printed, len(events))
}
