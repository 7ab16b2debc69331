package dpm_test

// Cluster-density benchmarks (EXPERIMENTS.md experiments S3/S4): what
// it costs to boot a simulated machine running one process, and what
// the batched delivery fabric sustains. These back
// the scale soak's ceilings with trend numbers; scripts/bench_filter.sh
// runs them into BENCH_scale.json.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/netsim"
	"dpm/internal/workloads"
)

// BenchmarkClusterBoot boots N machines, each with an account and one
// sink process, then tears the cluster down. boot_ms is the boot
// loop alone (shutdown excluded); alloc_bytes/machine is cumulative
// allocation across the whole iteration divided out per machine, the
// cost trend behind the soak's 64 KiB idle-heap budget.
func BenchmarkClusterBoot(b *testing.B) {
	for _, machines := range []int{100, 1000} {
		b.Run(fmt.Sprintf("machines=%d", machines), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			var bootNS int64
			sink := workloads.NewTrafficSink(7100, &workloads.TrafficStats{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				c := kernel.NewCluster(kernel.Config{})
				c.AddNetwork("ether0")
				for j := 0; j < machines; j++ {
					m, err := c.AddMachine(fmt.Sprintf("m-%04d", j), nil, "ether0")
					if err != nil {
						b.Fatal(err)
					}
					m.AddAccount(benchUID, "user")
					if _, err := m.Spawn(kernel.SpawnSpec{UID: benchUID, Name: "sink", Program: sink}); err != nil {
						b.Fatal(err)
					}
				}
				bootNS += time.Since(start).Nanoseconds()
				c.Shutdown()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(bootNS)/float64(b.N)/1e6, "boot_ms")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*machines), "alloc_bytes/machine")
		})
	}
}

// BenchmarkDatagramFabric pumps datagrams from one machine to a sink
// process on another and reports the sustained delivery rate. The sync
// variant delivers inline (zero configured latency); the latency
// variant routes every datagram through the timer-wheel fabric, so
// dgrams/s is the wheel's batched throughput, not one goroutine per
// delayed datagram.
func BenchmarkDatagramFabric(b *testing.B) {
	variants := []struct {
		name string
		opts []netsim.Option
	}{
		{"sync", nil},
		{"latency=2ms", []netsim.Option{netsim.WithLatency(2*time.Millisecond, time.Millisecond)}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			c := kernel.NewCluster(kernel.Config{})
			c.AddNetwork("ether0", v.opts...)
			defer c.Shutdown()
			src, err := c.AddMachine("src", nil, "ether0")
			if err != nil {
				b.Fatal(err)
			}
			dst, err := c.AddMachine("dst", nil, "ether0")
			if err != nil {
				b.Fatal(err)
			}
			src.AddAccount(benchUID, "user")
			dst.AddAccount(benchUID, "user")
			stats := &workloads.TrafficStats{}
			if _, err := dst.Spawn(kernel.SpawnSpec{UID: benchUID, Name: "sink", Program: workloads.NewTrafficSink(7100, stats)}); err != nil {
				b.Fatal(err)
			}
			pump, err := src.SpawnDetached(benchUID, "pump")
			if err != nil {
				b.Fatal(err)
			}
			fd, err := pump.Socket(meter.AFInet, kernel.SockDgram)
			if err != nil {
				b.Fatal(err)
			}
			if err := pump.BindPort(fd, 0); err != nil {
				b.Fatal(err)
			}
			// Datagrams to an unbound port drop silently; let the sink
			// bind before the timed pump starts.
			for !dst.PortBound(kernel.SockDgram, 7100) {
				time.Sleep(time.Millisecond)
			}
			dest := meter.InetName(dst.PrimaryHostID(), 7100)
			payload := make([]byte, 64)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pump.SendTo(fd, payload, dest); err != nil {
					b.Fatal(err)
				}
			}
			// Drain: a receiver that cannot keep up sheds legally, so wait
			// for full delivery or for delivery to stop making progress.
			last, stalls := int64(-1), 0
			for {
				cur := stats.Received.Load()
				if cur >= int64(b.N) || stalls > 100 {
					break
				}
				if cur == last {
					stalls++
				} else {
					last, stalls = cur, 0
				}
				time.Sleep(time.Millisecond)
			}
			b.StopTimer()
			b.ReportMetric(float64(stats.Received.Load())/b.Elapsed().Seconds(), "dgrams/s")
		})
	}
}
