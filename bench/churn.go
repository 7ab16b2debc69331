package main

import (
	"fmt"
	"strings"
	"time"

	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// control_churn: closed loop on the control path. One job after
// another, each six short processes on six machines: create, flag,
// start, wait for all six to terminate, remove. The processes do
// almost nothing and only their termination is metered, so controller
// commands, daemon sessions, process creation and the termination
// flush do the work, and the store sees six records a job.
const (
	churnWorkers      = 6
	churnPairMessages = 20 // socketpair send/recv round trips per process

	// Jobs per budget second; at the seed the control path turns over
	// about 900 jobs/s on the reference host, surveys included.
	churnJobsPerSecond = 400
	// Every churnSurveyEvery-th job the user also looks around: jobs,
	// status, stats.
	churnSurveyEvery = 50
	// churnRoundJobs jobs make one round of the measured phase.
	churnRoundJobs = 200
)

var churnMachines = []string{"w0", "w1", "w2", "w3", "w4", "w5", "filt", "ctl"}

// churnWorkerMain talks to itself over a socketpair and exits.
func churnWorkerMain(p *kernel.Process) int {
	a, b, err := p.SocketPair()
	if err != nil {
		return 1
	}
	msg := []byte("churn")
	for i := 0; i < churnPairMessages; i++ {
		if _, err := p.Send(a, msg); err != nil {
			return 1
		}
		if _, err := p.Recv(b, len(msg)); err != nil {
			return 1
		}
	}
	return 0
}

func setupChurn(cfg runConfig) (*rig, error) {
	r, err := boot(cfg.tr, churnMachines...)
	if err != nil {
		return nil, err
	}
	if err = r.sys.RegisterWorkload("worker", churnWorkerMain); err == nil {
		err = r.script("filter f filt")
	}
	if err != nil {
		r.shutdown()
		return nil, err
	}
	return r, nil
}

func runControlChurn(cfg runConfig) (*outcome, error) {
	r, took, err := timeSetups(cfg.setups,
		func() (*rig, error) { return setupChurn(cfg) })
	if err != nil {
		return nil, err
	}
	defer r.shutdown()
	o := newOutcome()
	o.setups = took
	jobs := cfg.scaled(churnJobsPerSecond)

	// step runs one command of a job; a command the controller refuses
	// fails the job. Termination notices can land on the terminal while
	// any later command runs, so the job's whole transcript is kept.
	var transcript strings.Builder
	step := func(class, cmd, want string) (time.Duration, bool) {
		out, d := r.timed(class, cmd)
		transcript.WriteString(out)
		if !strings.Contains(out, want) {
			o.problem("%s: %s", cmd, firstLine(out))
			return d, false
		}
		return d, true
	}
	normal := 0
	before := readUsage()
	inRound := 0
	for j := 0; j < jobs; j++ {
		job := fmt.Sprintf("j%d", j)
		o.attempted++
		ok := true
		sp := r.tr.begin("bench", "job", 0)
		start := time.Now()
		r.exec("newjob " + job)
		for w := 0; w < churnWorkers && ok; w++ {
			var d time.Duration
			if d, ok = step("addprocess", fmt.Sprintf("addprocess %s w%d worker", job, w), "created"); ok {
				o.class("addprocess").add(d, time.Now())
			}
		}
		if ok {
			_, ok = step("setflags", "setflags "+job+" termproc", "Flags set")
		}
		if ok {
			var d time.Duration
			if d, ok = step("startjob", "startjob "+job, "started"); ok {
				o.class("startjob").add(d, time.Now())
			}
		}
		if ok {
			ok = waitJob(r.ctl, job, 30*time.Second) == nil
		}
		finished := time.Now()
		turnaround := finished.Sub(start)
		sp.end()
		transcript.WriteString(r.term.take())
		done := strings.Count(transcript.String(), "reason: normal")
		transcript.Reset()
		normal += done
		if ok && done == churnWorkers {
			o.class("job_turnaround").add(turnaround, finished)
		} else {
			o.fail(1, "job %s: %d of %d processes ended normally", job, done, churnWorkers)
		}
		step("removejob", "removejob "+job, "removed")
		transcript.Reset()
		if j%churnSurveyEvery == churnSurveyEvery-1 {
			r.timed("jobs", "jobs")
			r.timed("status", "status")
			o.attempted++
			if out, d := r.timed("stats", "stats"); statsComplete(out, len(churnMachines)) {
				o.class("stats").add(d, time.Now())
			} else {
				o.fail(1, "stats: %s", firstLine(out))
			}
		}
		// A round is churnRoundJobs jobs; what is left at the end counts
		// as one only when no whole round was run.
		if inRound++; inRound == churnRoundJobs || j == jobs-1 && len(o.rounds) == 0 {
			now := readUsage()
			o.addRound(float64(inRound), now.since(before))
			before, inRound = now, 0
		}
	}

	want := int64(jobs * churnWorkers)
	if err := r.waitCounter("filt", "store.appends", want, 30*time.Second); err != nil {
		o.problem("drain: %v", err)
	}
	perKey := make(map[string]int64)
	for w := 0; w < churnWorkers; w++ {
		perKey[fmt.Sprintf("TERMPROC machine=%d", r.machine(fmt.Sprintf("w%d", w)).ID())] = int64(jobs)
	}
	verifySinks(r, o, "filt", "f", want, perKey, cfg.corruptReference)
	if normal != jobs*churnWorkers {
		o.problem("%d of %d processes ended normally", normal, jobs*churnWorkers)
	}
	o.opHash = hashBytes([]byte(fmt.Sprintf("%d jobs of %d workers, survey every %d", jobs, churnWorkers, churnSurveyEvery)))
	o.refHash = uint64(want)
	if cfg.tr != nil {
		w0 := r.machine("w0")
		events := make([]meter.Msg, 1024)
		for i := range events {
			events[i] = meter.Msg{
				Header: meter.Header{Machine: r.machine(fmt.Sprintf("w%d", i%churnWorkers)).ID(), CPUTime: uint32(1000 + i), ProcTime: 10},
				Body:   &meter.TermProc{PID: uint32(2 + i/churnWorkers), PC: 4 * (2*churnPairMessages + 1)},
			}
		}
		o.metered, o.kept = float64(jobs*churnWorkers), float64(jobs*churnWorkers)
		probeLayers(o, probeInput{
			r: r, filterMachine: "filt", filterName: "f", scale: cfg.probeScale(), events: events,
			pointRules: fmt.Sprintf("machine=%d,type=%d", w0.ID(), meter.EvTermProc),
			aggSpec:    "agg count by machine",
		})
	}
	return o, nil
}
