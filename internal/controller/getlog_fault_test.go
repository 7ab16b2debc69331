package controller

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dpm/internal/daemon"
	"dpm/internal/filter"
	"dpm/internal/kernel"
)

// TestGetLogResumesAfterFault: the bulk path degrades and does not hang.
// A log of four or five getfile chunks is being copied when a fault
// lands between two of them, at a chunk drawn from the seed: a partition
// between the controller and the filter's machine, or that machine
// crashing. The interrupted getlog gives up within its retry deadline and
// says so, having kept the chunks it holds. After the heal — the
// partition lifted, or the machine restarted with its daemon — one more
// getlog resumes from the offset it reached, verified by the prefix CRC,
// and the destination then equals the log byte for byte, with no byte
// shipped twice: the daemon's daemon.getfile_bytes over both fetches is
// exactly the log's length.
func TestGetLogResumesAfterFault(t *testing.T) {
	const chunk = 4 << 20 // the daemon's getFileChunk
	// Two attempts, as shortRetry, but a reply deadline that a chunk and
	// its prefix CRC meet under the race detector: an attempt that timed
	// out waiting for a reply the daemon was still building would have
	// the chunk shipped twice.
	bulkRetry := shortRetry
	bulkRetry.ReplyTimeout = 5 * time.Second
	for _, tc := range []struct {
		name       string
		fault, fix func(t *testing.T, c *kernel.Cluster, ctl *Controller)
	}{
		{"partition", func(t *testing.T, c *kernel.Cluster, ctl *Controller) {
			cutFrom(t, c, ctl, "blue")
		}, func(t *testing.T, c *kernel.Cluster, ctl *Controller) {
			n, err := c.Network("ether0")
			if err != nil {
				t.Fatal(err)
			}
			n.Heal()
		}},
		{"crash", func(t *testing.T, c *kernel.Cluster, ctl *Controller) {
			if err := c.CrashMachine("blue"); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, c *kernel.Cluster, ctl *Controller) {
			m, err := c.RestartMachine("blue")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := daemon.Install(c, m); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := time.Now().UnixNano()
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("seed %d", seed)
				}
			})
			rng := rand.New(rand.NewSource(seed))
			c, ctl, out := newSystem(t)
			ctl.SetRetryPolicy(bulkRetry)
			ctl.Exec("filter f1 blue")
			blue, err := c.Machine("blue")
			if err != nil {
				t.Fatal(err)
			}
			log := make([]byte, (3+rng.Intn(2))*chunk+1+rng.Intn(chunk-1))
			rng.Read(log)
			if err := blue.FS().Append(filter.LogPath("f1"), testUID, log); err != nil {
				t.Fatal(err)
			}
			chunks := (len(log) + chunk - 1) / chunk
			at := 1 + rng.Intn(chunks-1) // the fault follows this many chunks
			fired := false
			testHookGetLogChunk = func(off int) {
				if off == at*chunk && !fired {
					fired = true
					tc.fault(t, c, ctl)
				}
			}
			t.Cleanup(func() { testHookGetLogChunk = func(int) {} })

			start := time.Now()
			ctl.Exec("getlog f1 copy")
			took := time.Since(start)
			deadline := time.Duration(bulkRetry.MaxAttempts)*(bulkRetry.ReplyTimeout+bulkRetry.MaxDelay) + time.Second
			if !fired || took > deadline {
				t.Fatalf("fault after chunk %d of %d fired=%v; the interrupted getlog took %v, deadline %v", at, chunks, fired, took, deadline)
			}
			if !strings.Contains(out.String(), "getlog: ") {
				t.Fatalf("the interrupted getlog printed no error:\n%s", out.String())
			}
			if f := logState(t, ctl, "f1"); f.LogOffset != at*chunk {
				t.Fatalf("the interrupted getlog kept %d bytes, want the %d of its %d chunks", f.LogOffset, at*chunk, at)
			}

			tc.fix(t, c, ctl)
			before := out.String()
			ctl.Exec("getlog f1 copy")
			if s := strings.TrimPrefix(out.String(), before); strings.Contains(s, "getlog: ") {
				t.Fatalf("getlog after the heal failed:\n%s", s)
			}
			if got := readDest(t, ctl, "/usr/copy"); !bytes.Equal([]byte(got), log) {
				t.Fatalf("destination holds %d bytes, log %d, or they differ", len(got), len(log))
			}
			if shipped := blue.Obs().Counter("daemon.getfile_bytes").Load(); shipped != int64(len(log)) {
				t.Fatalf("the daemon shipped %d bytes for a %d-byte log", shipped, len(log))
			}
		})
	}
}
