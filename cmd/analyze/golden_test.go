package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/analyze.golden")

// TestMain runs the command itself when the test binary is started
// with ANALYZE_ARGS set, so the golden pins main as a user runs it.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("ANALYZE_ARGS"); ok {
		os.Args = append([]string{"analyze"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// logTime is the timestamp log.Fatal puts in front of its message.
var logTime = regexp.MustCompile(`(?m)^\d{4}/\d\d/\d\d \d\d:\d\d:\d\d `)

// run runs the command on args and renders what it did: its standard
// output, its standard error without log timestamps, and a failing
// exit status.
func run(t *testing.T, args string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "ANALYZE_ARGS="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	status := ""
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("%s: %v", args, err)
		}
		status = exit.String() + "\n"
	}
	return "$ " + args + "\n" + stdout.String() + "-- stderr\n" + logTime.ReplaceAllString(stderr.String(), "") + status
}

// TestAnalyzeGolden pins analyze's reports over tracedump's checked-in
// meter stream (every event type and every kind of socket name), its
// text log, and the stream with a torn final record appended.
func TestAnalyzeGolden(t *testing.T) {
	const bin, log = "../tracedump/testdata/meter.bin", "../tracedump/testdata/meter.log"
	stream, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.bin")
	if err := os.WriteFile(torn, append(stream, stream[:30]...), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, args := range []string{
		"-binary -timeline -validate " + bin,
		log,
		"-binary -json " + bin,
		"-binary -dot " + bin,
		"-binary " + torn,
	} {
		out.WriteString(run(t, args))
	}
	got := strings.ReplaceAll(out.String(), torn, "torn.bin")
	path := filepath.Join("testdata", "analyze.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the command's output:\n%s", path, got)
	}
}
