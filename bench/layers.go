package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"dpm/internal/agg"
	"dpm/internal/analysis/live"
	"dpm/internal/daemon"
	"dpm/internal/filter"
	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// The per-layer side of the benchmark. Nothing inside the monitor may
// change for it, so every layer is measured from outside through its
// public functions: the traced run replays the workload's own
// operations at successively lower boundaries (Controller.Exec, then
// the same request over the harness's own daemon session, then
// query.Run or agg.Eval on a reader, then store.OpenReader alone),
// pushes the workload's own event mix through the write-side stages one
// at a time, and reads the counters the layers already keep.

// perLayer is BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	{"kernel.send_unmetered_ns", "ns", "lower"},
	{"kernel.send_metered_nosink_ns", "ns", "lower"},
	{"kernel.stream_rtt_us", "us", "lower"},
	{"kernel.spawn_us", "us", "lower"},
	{"meter.encode_ns", "ns", "lower"},
	{"meter.buffer_add_ns", "ns", "lower"},
	{"meter.flushes_per_kevent", "count", "lower"},
	{"meter.wire_bytes_per_event", "B", "lower"},
	{"meter.drops", "count", "lower"},
	{"netsim.stream_ns_per_kb", "ns", "lower"},
	{"netsim.dgram_ns", "ns", "lower"},
	{"filter.process_ns_per_record.keepall", "ns", "lower"},
	{"filter.process_ns_per_record.selective", "ns", "lower"},
	{"filter.allocs_per_record", "count", "lower"},
	{"filter.pipeline_records_per_s.w1", "1/s", "higher"},
	{"filter.pipeline_records_per_s.wN", "1/s", "higher"},
	{"filter.kept_share", "share", "lower"},
	{"filter.feed_stalls", "count", "lower"},
	{"filter.log_stalls", "count", "lower"},
	{"filter.queue_high_water", "count", "lower"},
	{"store.append_ns_per_record", "ns", "lower"},
	{"store.flush_ms", "ms", "lower"},
	{"store.disk_bytes_per_record", "B", "lower"},
	{"store.compression_x", "x", "higher"},
	{"store.segments", "count", "lower"},
	{"store.rotations", "count", "lower"},
	{"store.compactions", "count", "lower"},
	{"store.archive_runs", "count", "lower"},
	{"store.open_reader_ms", "ms", "lower"},
	{"store.load_ns_per_record", "ns", "lower"},
	{"fsys.append_ns_per_kb", "ns", "lower"},
	{"fsys.read_ns_per_kb", "ns", "lower"},
	{"query.compile_us", "us", "lower"},
	{"query.run_point_ms", "ms", "lower"},
	{"query.run_scan_ms", "ms", "lower"},
	{"query.ns_per_record_scanned", "ns", "lower"},
	{"query.allocs_per_record", "count", "lower"},
	{"query.segments_scanned_share", "share", "lower"},
	{"query.blocks_pruned", "count", "higher"},
	{"query.retries", "count", "lower"},
	{"agg.eval_ms", "ms", "lower"},
	{"agg.ns_per_record", "ns", "lower"},
	{"agg.partial_bytes", "B", "lower"},
	{"agg.merge_us", "us", "lower"},
	{"daemon.session_rtt_us", "us", "lower"},
	{"daemon.oneshot_rtt_us", "us", "lower"},
	{"daemon.query_exchange_self_ms", "ms", "lower"},
	{"daemon.reply_bytes_per_op", "B", "lower"},
	{"controller.exec_self_ms.point", "ms", "lower"},
	{"controller.exec_self_ms.scan", "ms", "lower"},
	{"controller.exec_self_ms.agg", "ms", "lower"},
	{"controller.addprocess_us", "us", "lower"},
	{"controller.startjob_us", "us", "lower"},
	{"controller.removejob_us", "us", "lower"},
	{"controller.stats_ms_p50", "ms", "lower"},
	{"controller.query_point_ms_p95", "ms", "lower"},
	{"controller.query_scan_ms_p90", "ms", "lower"},
	{"controller.agg_ms_p90", "ms", "lower"},
	{"controller.freshness_ms_p99", "ms", "lower"},
	{"obs.snapshot_us", "us", "lower"},
	{"obs.snapshot_bytes", "B", "lower"},
	{"obs.merge_us", "us", "lower"},
	{"live.tap_overhead_x", "x", "lower"},
	{"live.section_bytes", "B", "lower"},
	{"trace.parse_ns_per_record", "ns", "lower"},
	{"bench.attributed_share.ingest", "share", "higher"},
	{"bench.attributed_share.read", "share", "higher"},
	{"bench.generator_late_ms_p99", "ms", "lower"},
	{"bench.trace_overhead_x", "x", "lower"},
	{"bench.peak_heap_mb", "MB", "lower"},
	{"bench.gc_cpu_share", "share", "lower"},
	{"bench.share.kernel", "share", "lower"},
	{"bench.share.meter", "share", "lower"},
	{"bench.share.netsim", "share", "lower"},
	{"bench.share.filter", "share", "lower"},
	{"bench.share.store", "share", "lower"},
	{"bench.share.fsys", "share", "lower"},
	{"bench.share.query", "share", "lower"},
	{"bench.share.agg", "share", "lower"},
	{"bench.share.daemon", "share", "lower"},
	{"bench.share.controller", "share", "lower"},
	{"bench.share.unattributed", "share", "lower"},
}

// budgetLayers are the layers of the stage budget, in data-path order.
var budgetLayers = []string{"kernel", "meter", "netsim", "filter", "store", "fsys", "query", "agg", "daemon", "controller"}

// probeInput is what a workload hands the layer probes after its traced
// run: its cluster, the store it wrote, its event mix, and one
// operation of each read class to replay.
type probeInput struct {
	r *rig
	// filterMachine and filterName locate the store and log.
	filterMachine, filterName string
	// events is the workload's event mix in generation order, a few
	// thousand messages; template is its filter's selection.
	events   []meter.Msg
	template string
	// pointRules, scanRules and aggRules/aggSpec are one query of each
	// class, in the controller's argument form (rule terms joined by
	// commas). An empty string skips the class: a workload replays
	// only what its own store can answer in bounded time.
	pointRules, scanRules, aggRules, aggSpec string
	// scale shrinks the probes' repetition counts for a run with a small
	// budget (the smoke test); 1 at the budget the benchmark declares.
	scale float64
}

// n scales a repetition count, keeping at least one.
func (in probeInput) n(base int) int {
	return max(int(float64(base)*in.scale), 1)
}

// measure times fn — the median over five repetitions of the mean of
// n(calls) calls — under a span, and records the cost of one call in
// nanoseconds, divided by per, as the named metric. The metric's name
// gives the span its layer and name.
func (in probeInput) measure(o *outcome, name, unit string, calls int, per float64, fn func()) {
	const reps = 5
	calls = in.n(calls)
	layer, what, _ := strings.Cut(name, ".")
	sp := in.r.tr.begin(layer, what, 0)
	o.layer(name, medianOf(reps, func() float64 { return nsPerOp(calls, fn) })/per, unit, reps*calls)
	sp.end()
}

// listen opens a stream socket on port (0 picks one) and listens on it.
func listen(p *kernel.Process, port uint16) (int, error) {
	fd, err := p.Socket(meter.AFInet, kernel.SockStream)
	if err == nil {
		err = p.BindPort(fd, port)
	}
	if err == nil {
		err = p.Listen(fd, 4)
	}
	return fd, err
}

// connect opens a stream socket connected to name.
func connect(p *kernel.Process, name meter.Name) (int, error) {
	fd, err := p.Socket(meter.AFInet, kernel.SockStream)
	if err == nil {
		err = p.Connect(fd, name)
	}
	return fd, err
}

func (o *outcome) layer(name string, value float64, unit string, n int) {
	o.layers[name] = metric{Value: value, Unit: unit, N: n}
}

func (o *outcome) layerValue(name string) float64 { return o.layers[name].Value }

// mallocs returns the process's allocation count, for per-record
// allocation figures taken single-threaded around one call.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// encodeEvents encodes the event mix as the kernel's meter buffer
// would flush it: chunks of meter.DefaultBufferCount messages.
func encodeEvents(events []meter.Msg) (stream []byte, chunks [][]byte) {
	for i := 0; i < len(events); i += meter.DefaultBufferCount {
		start := len(stream)
		for j := i; j < i+meter.DefaultBufferCount && j < len(events); j++ {
			stream = events[j].AppendEncode(stream)
		}
		chunks = append(chunks, stream[start:len(stream):len(stream)])
	}
	return stream, chunks
}

// sendEvents builds n SEND messages as the named machines' kernels would
// emit them in turn, to one destination, with the given lengths.
func sendEvents(n int, machines []uint16, length func(i int) uint32, dest meter.Name) []meter.Msg {
	events := make([]meter.Msg, n)
	for i := range events {
		events[i] = meter.Msg{
			Header: meter.Header{Machine: machines[i%len(machines)], CPUTime: uint32(1000 + i/4), ProcTime: uint32(i / 40 * 10)},
			Body: &meter.Send{PID: 2, PC: uint32(4 * i), Sock: 6, MsgLength: length(i),
				DestNameLen: meter.NameSize, DestName: dest},
		}
	}
	return events
}

// probeLayers runs every probe the input allows and the stage budget.
func probeLayers(o *outcome, in probeInput) {
	probeKernelAndNet(o, in)
	probeMeter(o, in)
	probeFilter(o, in)
	probeStoreWrite(o, in)
	probeFsys(o, in)
	probeStoreRead(o, in)
	probeReads(o, in)
	probeControl(o, in)
	probeObs(o, in)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.layer("bench.peak_heap_mb", float64(ms.HeapSys)/(1<<20), "MB", 1)
	o.layer("bench.gc_cpu_share", ms.GCCPUFraction, "share", 1)
}

// probeKernelAndNet measures the kernel's send paths, process creation
// and the simulated network on a quiet two-machine cluster of its own,
// so that what the workload left running does not compete.
func probeKernelAndNet(o *outcome, in probeInput) {
	if err := kernelAndNet(o, in); err != nil {
		o.problem("kernel probe: %v", err)
	}
}

func kernelAndNet(o *outcome, in probeInput) error {
	const uid, dgramPort, streamPort = 100, 7800, 7801
	c := kernel.NewCluster(kernel.Config{})
	defer c.Shutdown()
	c.AddNetwork("ether0")
	a, err := c.AddMachine("a", nil, "ether0")
	if err != nil {
		return err
	}
	b, err := c.AddMachine("b", nil, "ether0")
	if err != nil {
		return err
	}
	a.AddAccount(uid, "user")
	b.AddAccount(uid, "user")
	host, _, err := c.ResolveFrom(a, "b")
	if err != nil {
		return err
	}

	// On b: a stream server echoing what it gets, and a datagram socket
	// read only when a probe says so (sends to it exercise the send path
	// and the fabric, then shed at its full queue).
	if _, err := b.Spawn(kernel.SpawnSpec{UID: uid, Name: "echo", Program: func(p *kernel.Process) int {
		lfd, err := listen(p, streamPort)
		if err != nil {
			return 1
		}
		for {
			conn, _, err := p.Accept(lfd)
			if err != nil {
				return 0
			}
			p.Go(func() {
				for {
					data, err := p.Recv(conn, 1<<16)
					if err != nil {
						return
					}
					if _, err := p.Send(conn, data); err != nil {
						return
					}
				}
			})
		}
	}}); err != nil {
		return err
	}
	catcher, err := b.SpawnDetached(uid, "catcher")
	if err != nil {
		return err
	}
	cfd, err := dgramSocket(catcher, dgramPort)
	if err != nil {
		return err
	}
	sender, err := a.SpawnDetached(uid, "sender")
	if err != nil {
		return err
	}
	sfd, err := dgramSocket(sender, 0)
	if err != nil {
		return err
	}
	payload := make([]byte, 64)
	to := meter.InetName(host, dgramPort)
	send := func() { _, _ = sender.SendTo(sfd, payload, to) } // shed by design
	in.measure(o, "kernel.send_unmetered_ns", "ns", 20000, 1, send)

	// One datagram across the network: sent on one machine, received on
	// the other, one at a time.
	for {
		if _, _, err := catcher.TryRecvFrom(cfd, 4096); err != nil {
			break // drained
		}
	}
	in.measure(o, "netsim.dgram_ns", "ns", 2000, 1, func() {
		send()
		_, _, _ = catcher.RecvFrom(cfd, 4096)
	})

	// The same sends with the sender metered and its meter stream
	// drained by a sink that throws the bytes away: the kernel's and the
	// meter's share of a metered send, without a filter behind them.
	sink, err := a.SpawnDetached(0, "nullsink")
	if err != nil {
		return err
	}
	lfd, err := listen(sink, 0)
	if err != nil {
		return err
	}
	lname, err := sink.SocketName(lfd)
	if err != nil {
		return err
	}
	root, err := a.SpawnDetached(0, "root")
	if err != nil {
		return err
	}
	msfd, err := connect(root, lname)
	if err != nil {
		return err
	}
	conn, _, err := sink.Accept(lfd)
	if err != nil {
		return err
	}
	sink.Go(func() {
		for {
			if _, err := sink.Recv(conn, 1<<16); err != nil {
				return
			}
		}
	})
	if err := root.Setmeter(sender.PID(), int(meter.MSend), msfd); err != nil {
		return err
	}
	in.measure(o, "kernel.send_metered_nosink_ns", "ns", 20000, 1, send)

	// Stream round trip and stream bandwidth across the two machines.
	client, err := a.SpawnDetached(uid, "client")
	if err != nil {
		return err
	}
	fd, err := connect(client, meter.InetName(host, streamPort))
	if err != nil {
		return err
	}
	small, big := make([]byte, 64), make([]byte, 32<<10)
	echo := func(msg []byte) {
		_, _ = client.Send(fd, msg)
		for got := 0; got < len(msg); {
			data, err := client.Recv(fd, 1<<16)
			if err != nil {
				return
			}
			got += len(data)
		}
	}
	in.measure(o, "kernel.stream_rtt_us", "us", 2000, 1e3, func() { echo(small) })
	// The echo crosses the network twice.
	in.measure(o, "netsim.stream_ns_per_kb", "ns", 200, float64(2*len(big)>>10), func() { echo(big) })

	in.measure(o, "kernel.spawn_us", "us", 500, 1e3, func() {
		if p, err := a.Spawn(kernel.SpawnSpec{UID: uid, Name: "noop", Program: noopMain}); err == nil {
			p.WaitExit()
		}
	})
	return nil
}

// probeMeter measures the message codec and buffer on the workload's
// event mix and reads the kernels' meter counters.
func probeMeter(o *outcome, in probeInput) {
	if n := len(in.events); n > 0 {
		var dst []byte
		i := 0
		in.measure(o, "meter.encode_ns", "ns", 20*n, 1, func() {
			dst = in.events[i%n].AppendEncode(dst[:0])
			i++
		})
		buf := meter.NewBuffer(meter.DefaultBufferCount, func([]byte) {})
		in.measure(o, "meter.buffer_add_ns", "ns", 20*n, 1, func() {
			buf.Add(&in.events[i%n], false)
			i++
		})
	}
	var events, flushes, bytes, drops int64
	for _, m := range in.r.sys.Cluster.Machines() {
		reg := m.Obs()
		events += reg.Counter("meter.events").Load()
		flushes += reg.Counter("meter.flushes").Load()
		bytes += reg.Counter("meter.flush_bytes").Load()
		drops += reg.Counter("faults.meter_drops").Load()
	}
	o.layer("meter.flushes_per_kevent", ratio(float64(flushes)*1000, float64(events)), "count", int(events))
	o.layer("meter.wire_bytes_per_event", ratio(float64(bytes), float64(events)), "B", int(events))
	o.layer("meter.drops", float64(drops), "count", int(events))
}

// probeFilter replays the event mix through the selection engine and
// through whole pipelines, and reads the workload's filter counters.
func probeFilter(o *outcome, in probeInput) {
	reg := in.r.machine(in.filterMachine).Obs()
	received := reg.Counter("filter.received").Load()
	o.layer("filter.kept_share", ratio(float64(reg.Counter("filter.kept").Load()), float64(received)), "share", int(received))
	o.layer("filter.feed_stalls", float64(reg.Counter("filter.feed_stalls").Load()), "count", int(received))
	o.layer("filter.log_stalls", float64(reg.Counter("filter.log_stalls").Load()), "count", int(received))
	o.layer("filter.queue_high_water", float64(reg.Gauge("filter.queue_high_water").Load()), "count", int(received))
	if len(in.events) == 0 {
		return
	}
	stream, chunks := encodeEvents(in.events)
	n := len(in.events)
	passes := in.n(40)
	engine := func(template string) (float64, float64) {
		eng, err := filter.NewEngine([]byte(filter.StandardDescriptions), []byte(template))
		if err != nil {
			o.problem("filter probe: %v", err)
			return 0, 0
		}
		var batch filter.Batch
		pass := func() {
			batch.Reset()
			if _, err := eng.ProcessBatch(stream, &batch); err != nil {
				o.problem("filter probe: %v", err)
			}
		}
		pass() // size the batch's buffers
		before := mallocs()
		pass()
		allocs := float64(mallocs()-before) / float64(n)
		return medianOf(5, func() float64 { return nsPerOp(passes, pass) }) / float64(n), allocs
	}
	sp := in.r.tr.begin("filter", "process", 0)
	keepall, allocs := engine("")
	selective, _ := engine(liveTemplate)
	sp.end()
	o.layer("filter.process_ns_per_record.keepall", keepall, "ns", 5*passes*n)
	o.layer("filter.process_ns_per_record.selective", selective, "ns", 5*passes*n)
	o.layer("filter.allocs_per_record", allocs, "count", n)

	// Whole pipelines with a null log sink: one worker, then as many as
	// the filter program would start; then the second with the live
	// analysis tapped in.
	pipeline := func(workers int, taps bool) float64 {
		proto, err := filter.NewEngine([]byte(filter.StandardDescriptions), []byte(in.template))
		if err != nil {
			o.problem("pipeline probe: %v", err)
			return 0
		}
		preg := obs.NewRegistry()
		cfg := filter.PipelineConfig{Workers: workers, Obs: preg}
		if taps {
			cfg.Taps = live.NewCollector(live.Config{Obs: preg})
		}
		pipe := filter.NewPipeline(proto, cfg, filter.Sinks{Log: func([]byte) error { return nil }}, nil)
		srcs := make([]*filter.Source, 2*workers)
		for i := range srcs {
			srcs[i] = pipe.NewSource()
		}
		start := time.Now()
		for pass := 0; pass < passes; pass++ {
			for i, chunk := range chunks {
				srcs[i%len(srcs)].Feed(chunk)
			}
		}
		pipe.Close() // drains
		return float64(passes*n) / time.Since(start).Seconds()
	}
	workers := runtime.GOMAXPROCS(0)
	sp = in.r.tr.begin("filter", "pipeline", 0)
	o.layer("filter.pipeline_records_per_s.w1", medianOf(3, func() float64 { return pipeline(1, false) }), "1/s", 3*passes*n)
	off := medianOf(3, func() float64 { return pipeline(workers, false) })
	o.layer("filter.pipeline_records_per_s.wN", off, "1/s", 3*passes*n)
	sp.end()
	sp = in.r.tr.begin("live", "pipeline_tapped", 0)
	on := medianOf(3, func() float64 { return pipeline(workers, true) })
	sp.end()
	o.layer("live.tap_overhead_x", ratio(off, on), "x", 3*passes*n)
}

// formattedBatch runs the event mix through a keep-all engine and
// returns it as the store records and log image the filter would
// write.
func formattedBatch(o *outcome, events []meter.Msg) *filter.Batch {
	eng, err := filter.NewEngine([]byte(filter.StandardDescriptions), nil)
	if err != nil {
		o.problem("store probe: %v", err)
		return nil
	}
	stream, _ := encodeEvents(events)
	batch := new(filter.Batch)
	if _, err := eng.ProcessBatch(stream, batch); err != nil {
		o.problem("store probe: %v", err)
		return nil
	}
	return batch
}

// probeStoreWrite appends the formatted event mix to a store of the
// filter program's configuration on a memory backend.
func probeStoreWrite(o *outcome, in probeInput) {
	if len(in.events) == 0 {
		return
	}
	batch := formattedBatch(o, in.events)
	if batch == nil {
		return
	}
	recs := batch.StoreRecs()
	passes := in.n(20)
	var flushMS []float64
	sp := in.r.tr.begin("store", "append", 0)
	perRecord := medianOf(3, func() float64 {
		st, err := store.Open(store.NewMemBackend(), store.Config{Compress: store.CompressBlocks, ArchiveAfter: 30_000})
		if err != nil {
			o.problem("store probe: %v", err)
			return 0
		}
		ns := nsPerOp(passes, func() {
			if err := st.AppendBatch(recs); err != nil {
				o.problem("store probe: %v", err)
			}
		})
		start := time.Now()
		if err := st.Flush(); err != nil {
			o.problem("store probe: %v", err)
		}
		flushMS = append(flushMS, msSince(start))
		return ns / float64(len(recs))
	})
	sp.end()
	o.layer("store.append_ns_per_record", perRecord, "ns", 3*passes*len(recs))
	o.layer("store.flush_ms", median(flushMS), "ms", len(flushMS))
}

// probeFsys measures the simulated file system's append and read.
func probeFsys(o *outcome, in probeInput) {
	fs := fsys.New()
	chunk := make([]byte, 4<<10)
	// The file grows through every repetition: an append's cost includes
	// the amortised regrowth of a file that is one slice.
	in.measure(o, "fsys.append_ns_per_kb", "ns", 2000, float64(len(chunk)>>10), func() {
		_ = fs.Append("/probe", fsys.Superuser, chunk) // cannot fail: the superuser's own file
	})
	size := 0
	if f, err := fs.Stat("/probe"); err == nil {
		size = len(f.Data)
	}
	in.measure(o, "fsys.read_ns_per_kb", "ns", 20, float64(max(size>>10, 1)), func() {
		_, _ = fs.Read("/probe", fsys.Superuser)
	})
}

func (in probeInput) backend() store.Backend {
	return store.NewFsysBackend(in.r.machine(in.filterMachine).FS(), in.r.sys.UID, filter.StorePath(in.filterName))
}

// openReader opens the workload's store, asking again when maintenance
// removed a segment between the listing and the read (README,
// "retries").
func (in probeInput) openReader(o *outcome) *store.Reader {
	for try := 0; ; try++ {
		rd, err := store.OpenReader(in.backend())
		if err == nil {
			return rd
		}
		if try == 3 {
			o.problem("open store: %v", err)
			return nil
		}
	}
}

// probeStoreRead measures the store the workload wrote: its size and
// shape, opening it, and loading its segments.
func probeStoreRead(o *outcome, in probeInput) {
	reg := in.r.machine(in.filterMachine).Obs()
	for _, c := range []string{"rotations", "compactions", "archive_runs"} {
		o.layer("store."+c, float64(reg.Counter("store."+c).Load()), "count", 1)
	}
	o.layer("store.compression_x", ratio(float64(reg.Counter("store.raw_bytes").Load()), float64(reg.Counter("store.compressed_bytes").Load())), "x", 1)
	appends := reg.Counter("store.appends").Load()
	storeBytes, _ := in.r.diskBytes(in.filterMachine, in.filterName)
	o.layer("store.disk_bytes_per_record", ratio(float64(storeBytes), float64(appends)), "B", int(appends))

	const opens = 5
	sp := in.r.tr.begin("store", "open_reader", 0)
	o.layer("store.open_reader_ms", medianOf(opens, func() float64 {
		start := time.Now()
		in.openReader(o)
		return msSince(start)
	}), "ms", opens)
	sp.end()
	rd := in.openReader(o)
	if rd == nil {
		return
	}
	o.layer("store.segments", float64(rd.NumSegments()), "count", 1)
	// Loading is sampled: every k-th segment, at most 256 of them.
	var segs []*store.ReaderSegment
	for _, shard := range rd.Shards() {
		segs = append(segs, shard...)
	}
	step := max(len(segs)/256, 1)
	loaded := 0
	sp = in.r.tr.begin("store", "load", 0)
	start := time.Now()
	for i := 0; i < len(segs); i += step {
		if s, err := segs[i].Load(); err == nil {
			loaded += len(s.Recs)
		}
	}
	took := time.Since(start)
	sp.end()
	o.layer("store.load_ns_per_record", ratio(float64(took.Nanoseconds()), float64(loaded)), "ns", loaded)
}

// rulesText turns the controller's comma-joined argument form back
// into rule lines, one alternative a line, as cmdQuery does.
func rulesText(args string) string { return strings.Join(strings.Fields(args), "\n") }

// replay is one read class entered at each boundary in turn.
type replay struct {
	exec, session, run, open float64 // medians, ms
	replyBytes               int
	stats                    query.Stats
	body                     string // the records a scan shipped
}

// probeReads replays one operation of each read class at successively
// lower boundaries and derives each layer's self time from the
// differences. Spans are recorded parent to child in that order.
func probeReads(o *outcome, in probeInput) {
	tr := in.r.tr
	cmd, err := in.r.home.SpawnDetached(in.r.sys.UID, "bench-session")
	if err != nil {
		o.problem("read probe: %v", err)
		return
	}
	sess := daemon.DialSession(cmd, in.filterMachine, daemon.SessionConfig{})
	defer sess.Close()
	dir := filter.StorePath(in.filterName)
	reps := in.n(7)
	retries := 0

	// Round trips of the cheapest request: a session call, and the
	// one-shot exchange it replaced.
	list := (&daemon.ProcReq{Type: daemon.TListReq, UID: in.r.sys.UID}).Wire()
	in.measure(o, "daemon.session_rtt_us", "us", 500, 1e3, func() {
		_, _ = daemon.SessionExchange(sess, list, daemon.RetryPolicy{})
	})
	in.measure(o, "daemon.oneshot_rtt_us", "us", 200, 1e3, func() {
		_, _ = daemon.Exchange(cmd, in.filterMachine, list)
	})

	// boundaries runs one class: the controller command, the same
	// request over the harness's session, and the engine on a reader.
	boundaries := func(class, command string, req *daemon.WireMsg, engine func(*store.Reader) (query.Stats, error)) replay {
		var rp replay
		var execs, sessions, runs, opens []float64
		for i := 0; i < reps; i++ {
			top := tr.begin("controller", class+".exec", 0)
			start := time.Now()
			in.r.ctl.Exec(command)
			execs = append(execs, msSince(start))
			top.end()
			in.r.term.take()

			mid := tr.begin("daemon", class+".session_exchange", top.id)
			start = time.Now()
			rep, err := daemon.SessionExchange(sess, req, daemon.RetryPolicy{})
			sessions = append(sessions, msSince(start))
			mid.end()
			if err != nil || !rep.OK() {
				retries++ // the store moved under the daemon; the next repetition asks again
				continue
			}
			rp.replyBytes = len(rep.Data)
			if class == "scan" {
				_, rp.body, _ = strings.Cut(rep.Data, "\n")
			}

			low := tr.begin(engineLayer(class), class+".engine", mid.id)
			start = time.Now()
			leaf := tr.begin("store", class+".open_reader", low.id)
			rd, err := store.OpenReader(in.backend())
			opens = append(opens, msSince(start))
			leaf.end()
			if err != nil {
				low.end()
				retries++
				continue
			}
			st, err := engine(rd)
			runs = append(runs, msSince(start))
			low.end()
			if err != nil {
				o.problem("read probe %s: %v", class, err)
			}
			rp.stats = st
		}
		rp.exec, rp.session, rp.run, rp.open = median(execs), median(sessions), median(runs), median(opens)
		return rp
	}
	selfMS := func(outer, inner float64) float64 { return max(outer-inner, 0) }
	// queryEngine is query.Run at the engine boundary, counting the
	// allocations of the run itself.
	var allocs uint64
	queryEngine := func(text string) func(*store.Reader) (query.Stats, error) {
		return func(rd *store.Reader) (query.Stats, error) {
			q, err := query.Compile(text)
			if err != nil {
				return query.Stats{}, err
			}
			before := mallocs()
			res, err := query.Run(rd, q)
			allocs = mallocs() - before
			if err != nil {
				return query.Stats{}, err
			}
			return res.Stats, nil
		}
	}

	var point, scan, aggr replay
	if in.pointRules != "" {
		text := rulesText(in.pointRules)
		in.measure(o, "query.compile_us", "us", 200, 1e3, func() { _, _ = query.Compile(text) })
		point = boundaries("point",
			fmt.Sprintf("query %s benchpoint %s", in.filterName, in.pointRules),
			(&daemon.QueryReq{Dir: dir, Rules: text, UID: in.r.sys.UID}).Wire(),
			queryEngine(text))
		o.layer("query.run_point_ms", selfMS(point.run, point.open), "ms", reps)
		o.layer("query.segments_scanned_share", ratio(float64(point.stats.Scanned), float64(point.stats.Segments)), "share", point.stats.Segments)
		o.layer("query.blocks_pruned", float64(point.stats.BlocksPruned), "count", point.stats.Blocks)
		o.layer("controller.exec_self_ms.point", selfMS(point.exec, point.session), "ms", reps)
	}
	if in.scanRules != "" {
		text := rulesText(in.scanRules)
		scan = boundaries("scan",
			fmt.Sprintf("query %s benchscan %s", in.filterName, in.scanRules),
			(&daemon.QueryReq{Dir: dir, Rules: text, UID: in.r.sys.UID}).Wire(),
			queryEngine(text))
		run := selfMS(scan.run, scan.open)
		o.layer("query.run_scan_ms", run, "ms", reps)
		o.layer("query.ns_per_record_scanned", ratio(run*1e6, float64(scan.stats.Records)), "ns", scan.stats.Records)
		o.layer("query.allocs_per_record", ratio(float64(allocs), float64(scan.stats.Records)), "count", scan.stats.Records)
		o.layer("daemon.query_exchange_self_ms", selfMS(scan.session, scan.run), "ms", reps)
		o.layer("daemon.reply_bytes_per_op", float64(scan.replyBytes), "B", reps)
		o.layer("controller.exec_self_ms.scan", selfMS(scan.exec, scan.session), "ms", reps)
		if lines := strings.Count(scan.body, "\n"); lines > 0 {
			in.measure(o, "trace.parse_ns_per_record", "ns", 10, float64(lines), func() {
				_, _ = trace.ParseLog([]byte(scan.body))
			})
		}
	}
	if in.aggSpec != "" {
		text := rulesText(in.aggRules) + "\n" + in.aggSpec
		var partial *agg.Partial
		var spec *agg.Spec
		aggr = boundaries("agg",
			strings.Join(strings.Fields(fmt.Sprintf("query %s benchagg %s %s", in.filterName, in.aggRules, in.aggSpec)), " "),
			(&daemon.AggReq{Dir: dir, Rules: rulesText(in.aggRules), Spec: in.aggSpec, UID: in.r.sys.UID}).Wire(),
			func(rd *store.Reader) (query.Stats, error) {
				aq, err := agg.Compile(text)
				if err != nil {
					return query.Stats{}, err
				}
				p, st, err := agg.Eval(rd, aq, agg.Options{})
				partial, spec = p, aq.Spec
				return st, err
			})
		eval := selfMS(aggr.run, aggr.open)
		o.layer("agg.eval_ms", eval, "ms", reps)
		o.layer("agg.ns_per_record", ratio(eval*1e6, float64(aggr.stats.Records)), "ns", aggr.stats.Records)
		o.layer("controller.exec_self_ms.agg", selfMS(aggr.exec, aggr.session), "ms", reps)
		if partial != nil {
			data := partial.MarshalBinary()
			o.layer("agg.partial_bytes", float64(len(data)), "B", 1)
			in.measure(o, "agg.merge_us", "us", 100, 1e3, func() {
				if other, err := agg.ParsePartial(data); err == nil {
					_ = agg.NewPartial(spec).Merge(other)
				}
			})
		}
	}
	o.layer("query.retries", float64(retries), "count", 3*reps)

	// The read half of the stage budget: how much of a scan's time at
	// the terminal the stages measured on their own add up to.
	if scan.exec > 0 {
		ship := float64(scan.replyBytes) / 1024 * o.layerValue("netsim.stream_ns_per_kb") / 1e6
		parts := scan.run + ship + o.layerValue("daemon.session_rtt_us")/1e3 // run includes opening the reader
		o.layer("bench.attributed_share.read", ratio(parts, scan.exec), "share", reps)
	}
	o.readSplit = map[string]replay{"point": point, "scan": scan, "agg": aggr}
}

func engineLayer(class string) string {
	if class == "agg" {
		return "agg"
	}
	return "query"
}

func msSince(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e6 }

// probeControl times the controller's job commands on the workload's
// own cluster, a few small jobs on the filter's machine.
func probeControl(o *outcome, in probeInput) {
	r := in.r
	if err := r.sys.RegisterWorkload("benchnoop", noopMain, in.filterMachine); err != nil {
		o.problem("control probe: %v", err)
		return
	}
	jobs := in.n(40)
	add, start, remove := newSamples(jobs), newSamples(jobs), newSamples(jobs)
	for j := 0; j < jobs; j++ {
		job := fmt.Sprintf("benchjob%d", j)
		r.exec("newjob " + job + " " + in.filterName)
		_, d := r.timed("addprocess", "addprocess "+job+" "+in.filterMachine+" benchnoop")
		add.add(d, time.Now())
		_, d = r.timed("startjob", "startjob "+job)
		start.add(d, time.Now())
		if err := waitJob(r.ctl, job, 10*time.Second); err != nil {
			o.problem("control probe: %v", err)
			return
		}
		_, d = r.timed("removejob", "removejob "+job)
		remove.add(d, time.Now())
	}
	o.layer("controller.addprocess_us", add.p(0.5)*1e3, "us", jobs)
	o.layer("controller.startjob_us", start.p(0.5)*1e3, "us", jobs)
	o.layer("controller.removejob_us", remove.p(0.5)*1e3, "us", jobs)
}

// probeObs measures a snapshot of the busiest registry, the filter
// machine's: taking it, its size on the wire, and merging two.
func probeObs(o *outcome, in probeInput) {
	reg := in.r.machine(in.filterMachine).Obs()
	var snap *obs.Snapshot
	var wire []byte
	in.measure(o, "obs.snapshot_us", "us", 10, 1e3, func() {
		snap = reg.Snapshot()
		wire = snap.MarshalBinary()
	})
	o.layer("obs.snapshot_bytes", float64(len(wire)), "B", 1)
	sections := 0
	for _, s := range snap.Sections {
		if strings.HasPrefix(s.Name, "live.") {
			sections += len(s.Data)
		}
	}
	o.layer("live.section_bytes", float64(sections), "B", len(snap.Sections))
	in.measure(o, "obs.merge_us", "us", 10, 1e3, func() {
		a, errA := obs.ParseSnapshot(wire)
		b, errB := obs.ParseSnapshot(wire)
		if errA == nil && errB == nil {
			a.Merge(b)
		}
	})
}

// perLayerMetrics completes a traced outcome's per-layer metrics: the
// tails taken from the workload's own samples, the tracing overhead
// against the untraced run, and the stage budget.
func perLayerMetrics(def *workloadDef, o, base *outcome, tr *tracer) map[string]metric {
	tail := func(name, class string, q float64) {
		if s, ok := o.ops[class]; ok && s.n() > 0 {
			o.layer(name, s.p(q), "ms", s.n())
		}
	}
	tail("controller.stats_ms_p50", "stats", 0.5)
	tail("controller.query_point_ms_p95", "query_point", 0.95)
	tail("controller.query_scan_ms_p90", "query_scan", 0.90)
	tail("controller.agg_ms_p90", "agg_group", 0.90)
	tail("controller.agg_ms_p90", "agg", 0.90)
	tail("controller.freshness_ms_p99", "freshness", 0.99)
	if late, ok := o.extra["generator_late_ms_p99"]; ok {
		o.layers["bench.generator_late_ms_p99"] = late
	}
	if base != nil {
		perUnit := func(x *outcome) float64 { return ratio(x.phase.wall.Seconds(), x.units) }
		o.layer("bench.trace_overhead_x", ratio(perUnit(o), perUnit(base)), "x", int(o.units))
	}
	stageBudget(def, o, tr)
	m := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		v := o.layers[d.name] // absent: the workload has nothing to measure there
		v.Unit = d.unit
		m[d.name] = v
	}
	return m
}

// stageBudget estimates where the measured phase's CPU time went, layer
// by layer, from what the probes measured: per-record stage costs
// times the records the phase put through the write path, and each
// controller command's time at the terminal split by its class's
// boundary replay. What the estimates do not cover is reported as
// unattributed — the gap is the finding.
func stageBudget(def *workloadDef, o *outcome, tr *tracer) {
	layerS := make(map[string]float64)
	wire := o.layerValue("meter.wire_bytes_per_event")
	logBytes := max(ratio(float64(o.diskBytes), float64(o.diskRecords))-o.layerValue("store.disk_bytes_per_record"), 0)
	perMeteredNS := map[string]float64{
		"kernel": o.layerValue("kernel.send_unmetered_ns"),
		"meter":  max(o.layerValue("kernel.send_metered_nosink_ns")-o.layerValue("kernel.send_unmetered_ns"), 0),
		"netsim": wire / 1024 * o.layerValue("netsim.stream_ns_per_kb"),
		"filter": o.layerValue("filter.process_ns_per_record.keepall"),
	}
	perKeptNS := map[string]float64{
		"store": o.layerValue("store.append_ns_per_record"),
		"fsys":  logBytes / 1024 * o.layerValue("fsys.append_ns_per_kb"),
	}
	writeS := 0.0
	for layer, ns := range perMeteredNS {
		layerS[layer] += ns * o.metered / 1e9
		writeS += ns * o.metered / 1e9
	}
	for layer, ns := range perKeptNS {
		layerS[layer] += ns * o.kept / 1e9
		writeS += ns * o.kept / 1e9
	}
	if def.name == "ingest_flood" {
		// The one workload whose measured phase is the write path alone.
		o.layer("bench.attributed_share.ingest", ratio(writeS, o.phase.cpu.Seconds()), "share", int(o.metered))
	}
	for name, total := range tr.commandSeconds(o.rounds) {
		class := replayClass(name)
		rp, ok := o.readSplit[class]
		if !ok || rp.exec <= 0 {
			layerS["controller"] += total
			continue
		}
		share := func(ms float64) float64 { return total * ms / rp.exec }
		layerS["store"] += share(rp.open)
		layerS[engineLayer(class)] += share(max(rp.run-rp.open, 0))
		layerS["daemon"] += share(max(rp.session-rp.run, 0))
		layerS["controller"] += share(max(rp.exec-rp.session, 0))
	}
	// CPU seconds are the budget: the layers run in parallel on two
	// cores, so wall time would be double-counted.
	budget := o.phase.cpu.Seconds()
	covered := 0.0
	for _, layer := range budgetLayers {
		covered += layerS[layer]
		o.layer("bench.share."+layer, ratio(layerS[layer], budget), "share", 1)
	}
	o.layer("bench.share.unattributed", max(1-ratio(covered, budget), 0), "share", 1)
}

// replayClass maps an operation class of a workload to the read class
// whose boundary replay splits it.
func replayClass(class string) string {
	switch class {
	case "query_point", "freshness_poll":
		return "point"
	case "query_scan":
		return "scan"
	case "agg", "agg_group", "agg_topk":
		return "agg"
	}
	return ""
}

// budgetWarnings flags a stage budget that does not add up.
func budgetWarnings(res runResult) []string {
	var out []string
	if !res.Traced {
		return nil
	}
	for _, name := range []string{"bench.attributed_share.ingest", "bench.attributed_share.read"} {
		if v := res.Metrics[name]; v.N > 0 && (v.Value < 0.7 || v.Value > 1.3) {
			out = append(out, fmt.Sprintf("%s = %.2f is outside 0.7-1.3: the stages measured on their own do not add up to the whole", name, v.Value))
		}
	}
	sort.Strings(out)
	return out
}
