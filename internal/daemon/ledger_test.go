package daemon

import (
	"fmt"
	"testing"
	"time"

	"dpm/internal/kernel"
)

// TestCreateLedgerWindow runs 3 × maxCreateTokens creates on one daemon,
// each under its own token, and holds the idempotency ledger to its
// window: it never holds more than maxCreateTokens tokens, a create
// re-issued under a token still inside the window answers the first
// reply and spawns nothing, and a token that has left the window is not
// remembered. Each process is killed once created, so the machine holds
// a handful at a time.
func TestCreateLedgerWindow(t *testing.T) {
	p, m := machineProcess(t)
	m.Cluster().RegisterProgram("idle", func(*kernel.Process) int { return 0 })
	if err := m.FS().CreateExecutable("/bin/idle", testUID, "idle"); err != nil {
		t.Fatal(err)
	}
	d := newDaemonState(p)
	if err := d.openGateway(); err != nil {
		t.Fatal(err)
	}
	token := func(i int) string { return fmt.Sprintf("ledger.%d", i) }
	create := func(i int) Reply {
		t.Helper()
		rep := d.handleCreate(&CreateReq{Filename: "/bin/idle", UID: testUID, Token: token(i)})
		if !rep.OK() {
			t.Fatalf("create %d: %s", i, rep.Status)
		}
		return rep
	}
	const n = 3 * maxCreateTokens
	pids := make([]int, n)
	for i := range pids {
		pids[i] = create(i).PID
		if err := m.Signal(pids[i], kernel.SIGKILL); err != nil {
			t.Fatal(err)
		}
		if got := len(d.creates); got > maxCreateTokens {
			t.Fatalf("after %d creates the ledger holds %d tokens, more than %d", i+1, got, maxCreateTokens)
		}
	}
	if got := len(d.creates); got != maxCreateTokens {
		t.Fatalf("the ledger holds %d tokens after %d creates, want %d", got, n, maxCreateTokens)
	}

	waitFor(t, 5*time.Second, "the killed processes to exit", func() bool { return len(m.Procs()) == 1 })
	live := len(m.Procs())
	for _, i := range []int{n - maxCreateTokens, n - maxCreateTokens/2, n - 1} {
		if rep := create(i); rep.PID != pids[i] {
			t.Errorf("token %d, inside the window, re-issued: pid %d, want the first reply's %d", i, rep.PID, pids[i])
		}
		if got := len(m.Procs()); got != live {
			t.Errorf("token %d, inside the window, re-issued: %d processes, want %d: it spawned", i, got, live)
		}
	}
	for _, i := range []int{0, maxCreateTokens, n - maxCreateTokens - 1} {
		if _, ok := d.lookupCreate(token(i)); ok {
			t.Errorf("token %d, %d creates old, is still in a ledger of %d", i, n-i, maxCreateTokens)
		}
	}
	if rep := create(n - maxCreateTokens - 1); rep.PID == pids[n-maxCreateTokens-1] || len(m.Procs()) != live+1 {
		t.Errorf("a token outside the window re-issued answered pid %d with %d processes; want a new process (%d were live)", rep.PID, len(m.Procs()), live)
	}
	if got := len(d.creates); got != maxCreateTokens {
		t.Errorf("the ledger holds %d tokens, want %d", got, maxCreateTokens)
	}
}
