package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// sweptOp is what the client kept of one timed sweep-cold op.
type sweptOp struct {
	job      bool
	status   int
	ms       float64
	stages   map[string]float64 // the sweep's Server-Timing (sync ops)
	body     []byte             // kept for the verification sample only
	queueMs  float64            // job: started - created
	runMs    float64            // job: finished - started
	err      error
	complete call // the call whose answer ends the op
}

// jobView is the part of GET /v1/jobs/{id} the harness reads.
type jobView struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Error    string     `json:"error"`
}

// sweepCold runs sweep-cold: rep after rep, one dabenchd on an empty
// data dir (its start is set-up) and a closed loop of clients sending
// grids no earlier op requested, mostly as synchronous sweeps and every
// job_every-th as a polled async job.
func sweepCold(e *env) (*outcome, error) {
	cfg := e.p.SweepCold
	conns := min(cfg.Connections, runtime.NumCPU())
	reps := repCount(cfg.OpsPerSecond, e.seconds, cfg.RepOps)
	ops, err := planSweep(e.seed, cfg.RepOps, cfg)
	if err != nil {
		return nil, err
	}
	// Verified: a seeded sample of the sweeps and of the small jobs, and
	// every large job.
	rng := newRNG(e.seed, streamVerify)
	keep := map[int]bool{}
	var syncIdx, jobIdx []int
	points := 0
	for i, op := range ops {
		points += len(op.Reqs)
		switch {
		case op.Large:
			keep[i] = true
		case op.Job:
			jobIdx = append(jobIdx, i)
		default:
			syncIdx = append(syncIdx, i)
		}
	}
	for _, k := range sample(rng, cfg.VerifySweepSamples, len(syncIdx)) {
		keep[syncIdx[k]] = true
	}
	for _, k := range sample(rng, cfg.VerifyJobSamples, len(jobIdx)) {
		keep[jobIdx[k]] = true
	}

	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, "node")
	f := &fleet{hc: newClient(conns), nodes: []*daemon{{bin: e.bin,
		addr: fmt.Sprintf("127.0.0.1:%d", port), args: []string{"-data-dir", dir}}}}
	defer f.kill()
	base := f.nodes[0].url()
	poll := time.Duration(cfg.PollIntervalMs * float64(time.Millisecond))

	o := &outcome{}
	clock := time.Now()
	var done []sweptOp
	var before, after []map[string]float64
	var selfUsed, wall time.Duration
	workers := 0
	for r := 0; r < reps; r++ {
		restarts := 1
		if r == 0 {
			restarts = cfg.SetupRepeats
		}
		for k := 0; k < restarts; k++ {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			// The last rep's blobs are written back and deleted now, not
			// in the middle of this rep's timing.
			syscall.Sync()
			d, err := f.start()
			if err != nil {
				return nil, err
			}
			o.setup = append(o.setup, d.Seconds())
			if k < restarts-1 {
				if err := f.stop(); err != nil {
					return nil, err
				}
			}
		}
		if r == 0 {
			if workers, err = f.sweepWorkers(); err != nil {
				return nil, err
			}
		}
		b, err := f.scrape()
		if err != nil {
			return nil, err
		}
		cpu0, err := f.cpu()
		if err != nil {
			return nil, err
		}
		self0, steal0 := selfCPU(), stealTicks()
		rp := rep{}
		got := make([]sweptOp, len(ops))
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(ops); i += conns {
					var so sweptOp
					if ops[i].Job {
						so = runJob(f.hc, base, ops[i].Body, poll)
					} else {
						call, err := do(f.hc, http.MethodPost, base+"/v1/sweep", ops[i].Body, "")
						so = sweptOp{status: call.status, ms: call.ms(), err: err, complete: call}
						if err == nil {
							so.stages, so.err = parseServerTiming(call.timing)
						}
					}
					if keep[i] {
						so.body = so.complete.body
					}
					so.complete.body = nil
					if so.err == nil {
						name := "http.sweep"
						if so.job {
							name = "http.job"
						}
						traceCall(e.tr, name, so.complete, so.stages)
					}
					got[i] = so
				}
			}(c)
		}
		wg.Wait()
		// The rep ends when the store has written its blobs: the
		// write-behind queue holds up to 1024 of them when the clients
		// finish.
		if err := f.flush(); err != nil {
			return nil, err
		}
		rp.wall, rp.steal = time.Since(t0), stealTicks()-steal0
		wall += rp.wall
		selfUsed += selfCPU() - self0
		cpu1, err := f.cpu()
		if err != nil {
			return nil, err
		}
		rp.cpu = cpu1 - cpu0
		if rp.rss, err = f.rss(); err != nil {
			return nil, err
		}
		a, err := f.scrape()
		if err != nil {
			return nil, err
		}
		// Every point's blob is written and chained once the flush returns.
		if recs := delta(b, a, "dabench_provenance_records"); recs != float64(points) {
			fmt.Fprintf(e.log, "perfbench: sweep-cold rep %d chained %.0f provenance records for %d points\n", r+1, recs, points)
		}
		before, after = append(before, b...), append(after, a...)
		if err := f.stop(); err != nil {
			return nil, err
		}
		done = append(done, got...)
		o.reps = append(o.reps, rp)
	}
	e.phase("reps", &clock)

	// Correctness: the sampled sweeps and job results of every rep
	// against the same grid swept cold, synchronously, in-process.
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	want := map[int][]byte{}
	var queue, run []float64
	for j, so := range done {
		i := j % len(ops)
		lat := so.ms
		bad := ""
		switch {
		case so.err != nil:
			bad = so.err.Error()
		case so.status != http.StatusOK:
			bad = fmt.Sprintf("status %d", so.status)
		case keep[i]:
			if want[i] == nil {
				if want[i], _, err = ref.post("/v1/sweep", ops[i].Body); err != nil {
					return nil, err
				}
			}
			if !bytes.Equal(so.body, want[i]) {
				bad = "answer differs from the synchronous cold in-process sweep"
			}
		}
		r := &o.reps[j/len(ops)]
		if bad != "" {
			r.failed++
			lat = math.Inf(1)
			o.fail("sweep-cold op %d (job %v): %s", i, so.job, bad)
		}
		if so.job && so.err == nil {
			queue, run = append(queue, so.queueMs), append(run, so.runMs)
		}
		r.lats = append(r.lats, lat)
	}
	e.phase("verify", &clock)
	if e.tr == nil {
		return o, nil
	}

	nops := float64(len(done))
	L := map[string]float64{}
	var served []servedOp
	for _, so := range done {
		if !so.job && so.err == nil {
			rung, err := classifyRung(so.status, so.stages)
			served = append(served, servedOp{status: so.status, rung: rung, ms: so.ms, stages: so.stages, err: err})
		}
	}
	serverLayers(L, served, float64(len(served)))
	daemonLayers(e.log, L, before, after, after[len(after)-1:], nops, wall, workers)
	L["jobs.queue_ms"], L["jobs.run_ms"] = mean(queue), mean(run)
	L["bench.cpu_ms_per_op"] = float64(selfUsed.Nanoseconds()) / 1e6 / nops
	var reqs []runReq
	for _, op := range ops {
		reqs = append(reqs, op.Reqs...)
	}
	L["graph.build_ms"] = graphBuildMs(reqs, e.seed, cfg.GraphSamples)
	if L["store.write_ms"], err = storeWriteMs(filepath.Join(e.work, "write"), reqs, e.seed, cfg.WriteSamples); err != nil {
		return nil, err
	}
	o.layer = L
	return o, nil
}

// runJob submits one grid as an async job, polls it to completion and
// fetches its result; the op's latency runs from submission to the
// result's last byte.
func runJob(hc *http.Client, base string, body []byte, poll time.Duration) sweptOp {
	so := sweptOp{job: true}
	sub, err := do(hc, http.MethodPost, base+"/v1/jobs", body, "")
	if err != nil || sub.status != http.StatusAccepted {
		so.status, so.err = sub.status, err
		if err == nil {
			so.err = fmt.Errorf("job submit answered %d: %s", sub.status, sub.body)
		}
		return so
	}
	var v jobView
	if err := json.Unmarshal(sub.body, &v); err != nil {
		so.err = err
		return so
	}
	for v.State != "done" {
		if v.State == "failed" || v.State == "cancelled" {
			so.err = fmt.Errorf("job %s %s: %s", v.ID, v.State, v.Error)
			return so
		}
		time.Sleep(poll)
		c, err := do(hc, http.MethodGet, base+"/v1/jobs/"+v.ID, nil, "")
		if err == nil && c.status != http.StatusOK {
			err = fmt.Errorf("job poll answered %d", c.status)
		}
		if err == nil {
			err = json.Unmarshal(c.body, &v)
		}
		if err != nil {
			so.err = err
			return so
		}
	}
	res, err := do(hc, http.MethodGet, base+"/v1/jobs/"+v.ID+"/result", nil, "")
	so.status, so.err, so.complete = res.status, err, res
	so.complete.start = sub.start
	so.ms = so.complete.ms()
	if v.Started != nil && v.Finished != nil {
		so.queueMs = float64(v.Started.Sub(v.Created).Nanoseconds()) / 1e6
		so.runMs = float64(v.Finished.Sub(*v.Started).Nanoseconds()) / 1e6
	}
	return so
}
