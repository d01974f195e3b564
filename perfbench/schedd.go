package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/online"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/service"
	"bioschedsim/internal/tracecol"
	"bioschedsim/internal/workload"
)

// schedd-closed drives the daemon in process through its HTTP handler. One
// client loop keeps scheddWindow cloudlets outstanding, in requests of
// scheddRequest cloudlets replayed in order from a columnar trace, and
// learns of completions by polling Service.Status. The window stays below
// every shard's QueueCap, so no request can be refused.
const (
	scheddVMs       = 16
	scheddDCs       = 2
	scheddShards    = 2
	scheddBatch     = 256
	scheddFlush     = time.Millisecond
	scheddQueueCap  = 8192
	scheddWindow    = 2048
	scheddRequest   = 8
	scheddTraceRows = 1 << 16
	scheddArrivals  = 1000.0 // trace arrival rate; the closed loop ignores arrival times

	scheddWarmup = time.Second
	// scheddGrace is how long outstanding cloudlets may take to finish once
	// submission stops. Cloudlets still unfinished then count as failed.
	scheddGrace = 10 * time.Second
	// pollInterval is the client's sleep between status sweeps; it bounds
	// the resolution of the polled spans.
	pollInterval = time.Millisecond
	// sampleWindow is the length of one throughput sample.
	sampleWindow = 250 * time.Millisecond
	// scrapeEvery is how often the client scrapes the metrics surface.
	scrapeEvery = 250 * time.Millisecond
	// batchRepeats is how many standalone map and execute calls a traced
	// run times.
	batchRepeats = 200
)

// setupRepeats is how many daemons schedd-closed starts before measuring;
// setup_s is the median of their start-up times.
const setupRepeats = 21

// daemon is one set-up schedd instance and its replayable requests.
type daemon struct {
	svc     *service.Service
	handler http.Handler
	bodies  [][]byte
	rows    []workload.TraceEntry
}

// closedPlan is schedd-closed's loop: a warm-up second, then submission
// for the measured seconds, then up to scheddGrace for what is outstanding.
func closedPlan(seconds float64) loopPlan {
	return loopPlan{warmup: scheddWarmup, measure: time.Duration(seconds * float64(time.Second)), grace: scheddGrace}
}

func runScheddClosed(cfg runConfig, res *Result) error {
	trace, err := scheddTrace(cfg.seed, scheddTraceRows)
	if err != nil {
		return err
	}
	var setups []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		next, err := newDaemon(trace, cfg.seed, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if d != nil {
			res.check(d.drain(5 * time.Second))
		}
		d = next
	}

	if !cfg.trace {
		ls := d.closedLoop(res, closedPlan(cfg.seconds), nil)
		res.timing("setup_s", "s", setups)
		res.timing("schedd.cloudlets_per_s", "1/s", ls.throughput)
		ls.describe(res, "")
		return nil
	}

	plain := d.closedLoop(res, closedPlan(cfg.seconds/2), nil)
	plain.describe(res, "untraced_")
	tr := NewTracer(maxKeptSpans)
	for i := 0; i < setupRepeats; i++ {
		next, err := newDaemon(trace, cfg.seed, tr)
		if err != nil {
			return err
		}
		if i < setupRepeats-1 {
			res.check(next.drain(5 * time.Second))
		} else {
			d = next
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	traced := d.closedLoop(res, closedPlan(cfg.seconds/2), tr)
	runtime.ReadMemStats(&ms1)
	traced.describe(res, "")
	bb, err := newBatchBench(cfg.seed, d.rows)
	if err != nil {
		return err
	}
	for i := 0; i < batchRepeats; i++ {
		if err := bb.run(tr, i); err != nil {
			return err
		}
	}
	tr.Close()

	res.timing("tracecol.read_s", "s", tr.Self("tracecol.read"))
	res.timing("service.new_s", "s", tr.Self("service.new"))
	res.timing("service.submit_s", "s", tr.Self("service.submit"))
	res.timing("service.coalesce_wait_s", "s", tr.Self("service.coalesce_wait"))
	res.timing("service.map_execute_s", "s", tr.Self("service.map_execute"))
	res.timing("service.status_s", "s", tr.Self("service.status"))
	res.timing("service.scrape_s", "s", tr.Self("service.scrape"))
	res.timing("sched.schedule_s.batch", "s", tr.Self("sched.schedule.batch"))
	res.timing("online.session_run_s.batch", "s", tr.Self("online.session_run.batch"))
	res.set("service.poll_interval_s", "s", traced.pollPeriod)
	for _, name := range []string{"service.batches", "service.batch_size_mean", "service.empty_flushes", "service.rejects"} {
		res.set(name, "count", traced.scraped[name])
	}
	if traced.completed > 0 {
		res.set("service.allocs_per_cloudlet", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(traced.completed))
	}
	res.set("gc.pause_s", "s", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e9)
	res.set("cloud.sim_clock_s", "s", traced.simClock)
	overhead(res, "schedd.cloudlets_per_s", traced.throughput, plain.throughput)
	return tr.WriteFile(cfg.spans)
}

// scheddTrace generates a request trace of rows cloudlets and encodes it in
// the columnar format, as a client would ship it.
func scheddTrace(seed uint64, rows int) ([]byte, error) {
	proc, err := workload.NewPoisson(scheddArrivals)
	if err != nil {
		return nil, err
	}
	entries, err := workload.SyntheticTraceFrom(workload.HeterogeneousCloudletSpec(), rows, proc, seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tracecol.Write(&buf, entries, tracecol.WriteOptions{}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// newDaemon decodes the trace into request bodies and starts a daemon on
// the benchmark's fleet: base mapper, 16 heterogeneous VMs, 2 shards, one
// mapping worker per shard.
func newDaemon(trace []byte, seed uint64, tr *Tracer) (*daemon, error) {
	run := tr.NewRun()
	defer tr.FinishRun(run)
	sp := tr.Begin(run, -1, "tracecol.read")
	p, err := tracecol.OpenBytes(trace)
	if err != nil {
		return nil, err
	}
	rows, err := tracecol.ReadAll(p, tracecol.ReadOptions{})
	tr.End(run, sp)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, 0, len(rows)/scheddRequest)
	for i := 0; i+scheddRequest <= len(rows); i += scheddRequest {
		specs := make([]service.CloudletSpec, scheddRequest)
		for j, e := range rows[i : i+scheddRequest] {
			c := e.Cloudlet
			specs[j] = service.CloudletSpec{Length: c.Length, PEs: c.PEs, FileSize: c.FileSize, OutputSize: c.OutputSize}
		}
		body, err := json.Marshal(map[string]any{"cloudlets": specs})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}

	env, err := scheddEnv(seed)
	if err != nil {
		return nil, err
	}
	run2 := tr.NewRun()
	defer tr.FinishRun(run2)
	sp = tr.Begin(run2, -1, "service.new")
	svc, err := service.New(env, service.Config{
		Scheduler:     "base",
		Shards:        scheddShards,
		BatchSize:     scheddBatch,
		FlushInterval: scheddFlush,
		QueueCap:      scheddQueueCap,
		Workers:       1,
		Seed:          int64(seed),
	})
	tr.End(run2, sp)
	if err != nil {
		return nil, err
	}
	return &daemon{svc: svc, handler: svc.Handler(), bodies: bodies, rows: rows}, nil
}

func scheddEnv(seed uint64) (*cloud.Environment, error) {
	fleet := workload.GenerateVMs(workload.HeterogeneousVMSpec(), scheddVMs, seed)
	return workload.GenerateEnvironment(workload.HeterogeneousDatacenterSpec(scheddDCs), fleet, seed)
}

func (d *daemon) drain(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return d.svc.Drain(ctx)
}

// request is one submitted request the client is waiting on.
type request struct {
	run       int
	root      int
	ids       []int
	next      int // index of the first id not yet seen finished
	failed    bool
	submitted time.Time // the submit call returned
	leftQueue time.Time // first poll that saw the request past "queued"
}

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	throughput []float64 // cloudlets finished per second, one per sampleWindow
	completed  int       // cloudlets finished during the measured window
	accepted   int       // cloudlets accepted over the whole phase
	requests   int
	failedReqs int
	pollPeriod float64 // mean seconds between status sweeps
	simClock   float64 // largest FinishSim seen
	scraped    map[string]float64
}

// describe copies the phase's counts into the record.
func (ls loopStats) describe(res *Result, prefix string) {
	res.info[prefix+"accepted_cloudlets"] = ls.accepted
	res.info[prefix+"requests"] = ls.requests
	res.info[prefix+"failed_requests"] = ls.failedReqs
	res.info[prefix+"sim_clock_s"] = ls.simClock
	res.info[prefix+"poll_period_s"] = ls.pollPeriod
	res.info[prefix+"metrics_surface"] = ls.scraped
	res.info[prefix+"throughput_samples"] = ls.throughput
}

// loopPlan shapes one closed-loop phase.
type loopPlan struct {
	warmup  time.Duration // submitted but not counted as throughput
	measure time.Duration // submission stops warmup+measure after the start
	// requests, when positive, also stops submission after that many
	// requests: one pass over the replayed bodies.
	requests int
	grace    time.Duration // how long outstanding cloudlets may then take
}

// more reports whether a loop that has sent sent requests may send another.
func (p loopPlan) more(sent int) bool { return p.requests == 0 || sent < p.requests }

// closedLoop runs the client against d as p says: it keeps scheddWindow
// cloudlets outstanding until submission stops, then waits up to p.grace
// for the outstanding ones. Every request is one operation in res; it fails
// if any of its cloudlets is refused, fails, vanishes from the status store
// or is still unfinished at the deadline. The daemon is drained at the end
// and its counters reconciled with what the client saw.
func (d *daemon) closedLoop(res *Result, p loopPlan, tr *Tracer) loopStats {
	ls := loopStats{}
	var active []*request
	outstanding := 0
	cursor := 0
	start := time.Now()
	measureFrom := start.Add(p.warmup)
	measureTo := measureFrom.Add(p.measure)
	graceTo := measureTo.Add(p.grace)
	nextSample := measureFrom.Add(sampleWindow)
	nextScrape := start.Add(scrapeEvery)
	sampleDone := 0
	sweeps := 0
	var scrape bytes.Buffer

	for {
		now := time.Now()
		if now.After(graceTo) {
			break
		}
		submitting := now.Before(measureTo) && p.more(cursor)
		if !submitting && len(active) == 0 {
			break
		}
		for submitting && p.more(cursor) && outstanding+scheddRequest <= scheddWindow {
			rq, err := d.submit(tr, d.bodies[cursor%len(d.bodies)])
			cursor++
			ls.requests++
			if err != nil {
				res.op(err)
				ls.failedReqs++
				break
			}
			ls.accepted += len(rq.ids)
			outstanding += len(rq.ids)
			active = append(active, rq)
		}

		sweeps++
		measuring := now.After(measureFrom) && now.Before(measureTo)
		kept := active[:0]
		for _, rq := range active {
			n := d.poll(tr, rq, &ls)
			outstanding -= n
			if measuring {
				ls.completed += n
			}
			if rq.next < len(rq.ids) {
				kept = append(kept, rq)
				continue
			}
			d.retire(tr, rq, res, &ls, nil)
		}
		active = kept

		now = time.Now()
		for !nextSample.After(now) && !nextSample.After(measureTo) {
			ls.throughput = append(ls.throughput, float64(ls.completed-sampleDone)/sampleWindow.Seconds())
			sampleDone = ls.completed
			nextSample = nextSample.Add(sampleWindow)
		}
		if !nextScrape.After(now) {
			run := tr.NewRun()
			sp := tr.Begin(run, -1, "service.scrape")
			scrape.Reset()
			d.svc.WriteMetrics(&scrape)
			tr.End(run, sp)
			tr.FinishRun(run)
			nextScrape = now.Add(scrapeEvery)
		}
		time.Sleep(pollInterval)
	}
	elapsed := time.Since(start)
	if sweeps > 0 {
		ls.pollPeriod = elapsed.Seconds() / float64(sweeps)
	}

	if len(active) > 0 {
		d.reportStall(res, active, ls.simClock)
	}
	for _, rq := range active {
		d.retire(tr, rq, res, &ls, fmt.Errorf("request of cloudlets %d-%d: unfinished %v after submission stopped",
			rq.ids[0], rq.ids[len(rq.ids)-1], p.grace))
	}
	drainErr := d.drain(5 * time.Second)
	if drainErr != nil {
		res.check(fmt.Errorf("daemon did not drain: %w", drainErr))
	}
	run := tr.NewRun()
	sp := tr.Begin(run, -1, "service.scrape")
	scrape.Reset()
	d.svc.WriteMetrics(&scrape)
	tr.End(run, sp)
	tr.FinishRun(run)
	ls.scraped = parseSurface(scrape.String())
	res.check(reconcile(ls, len(active) > 0 || drainErr != nil))
	return ls
}

// reportStall records where the daemon stopped finishing work: how many
// accepted cloudlets are still unfinished on each shard, the largest
// simulated finish time seen, and the innermost frames of every goroutine
// still inside a simulation engine run.
func (d *daemon) reportStall(res *Result, active []*request, simClock float64) {
	perShard := map[int]int{}
	for _, rq := range active {
		for _, id := range rq.ids[rq.next:] {
			if st, ok := d.svc.Status(id); !ok || st.State != service.StateFinished {
				perShard[st.Shard]++
			}
		}
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var engines [][]string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "internal/sim.(*Engine).Run") {
			continue
		}
		var frames []string
		for _, line := range strings.Split(g, "\n")[1:] {
			if line != "" && !strings.HasPrefix(line, "\t") && len(frames) < 6 {
				frames = append(frames, line)
			}
		}
		engines = append(engines, frames)
	}
	res.info["stall"] = map[string]any{
		"unfinished_by_shard": perShard,
		"sim_clock_s":         simClock,
		"engine_goroutines":   engines,
	}
	res.check(fmt.Errorf("daemon stalled: unfinished cloudlets by shard %v, largest simulated finish %.6g s, %d goroutines still in sim.(*Engine).Run",
		perShard, simClock, len(engines)))
}

// submit posts one request through the daemon's HTTP handler.
func (d *daemon) submit(tr *Tracer, body []byte) (*request, error) {
	rq := &request{run: tr.NewRun()}
	rq.root = tr.Begin(rq.run, -1, "schedd.request")
	req, err := http.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	sp := tr.Begin(rq.run, rq.root, "service.submit")
	d.handler.ServeHTTP(rec, req)
	tr.End(rq.run, sp)
	rq.submitted = time.Now()
	if rec.Code != http.StatusAccepted {
		tr.FinishRun(rq.run)
		return nil, fmt.Errorf("submit answered %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var resp struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.IDs) != scheddRequest {
		tr.FinishRun(rq.run)
		return nil, fmt.Errorf("submit answered %q", rec.Body.String())
	}
	rq.ids = resp.IDs
	return rq, nil
}

// poll checks rq's cloudlets in order from the first one not yet seen
// finished, stopping at the first that is still queued or being scheduled.
// It returns how many cloudlets it newly saw finished (or failed).
func (d *daemon) poll(tr *Tracer, rq *request, ls *loopStats) int {
	seen := 0
	for rq.next < len(rq.ids) {
		id := rq.ids[rq.next]
		sp := tr.Begin(rq.run, rq.root, "service.status")
		st, ok := d.svc.Status(id)
		tr.End(rq.run, sp)
		if !ok {
			rq.failed = true
		} else {
			switch st.State {
			case service.StateQueued:
				return seen
			case service.StateScheduling:
				if rq.leftQueue.IsZero() {
					rq.leftQueue = time.Now()
				}
				return seen
			case service.StateFinished:
				if st.FinishSim > ls.simClock {
					ls.simClock = st.FinishSim
				}
			default:
				rq.failed = true
			}
		}
		if rq.leftQueue.IsZero() {
			rq.leftQueue = time.Now()
		}
		rq.next++
		seen++
	}
	return seen
}

// retire closes a request's spans and counts it as one operation.
func (d *daemon) retire(tr *Tracer, rq *request, res *Result, ls *loopStats, err error) {
	now := time.Now()
	if !rq.leftQueue.IsZero() {
		tr.Record(rq.run, rq.root, "service.coalesce_wait", rq.submitted, rq.leftQueue)
		if err == nil {
			tr.Record(rq.run, rq.root, "service.map_execute", rq.leftQueue, now)
		}
	}
	tr.End(rq.run, rq.root)
	tr.FinishRun(rq.run)
	if err == nil && rq.failed {
		err = fmt.Errorf("request of cloudlets %v: a cloudlet failed or left the status store", rq.ids)
	}
	if err != nil {
		ls.failedReqs++
	}
	res.op(err)
}

// parseSurface reads the merged daemon counters the benchmark reports from
// the Prometheus text surface.
func parseSurface(text string) map[string]float64 {
	series := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			series[fields[0]] = v
		}
	}
	out := map[string]float64{
		"service.batches":       series["schedd_batches_total"],
		"service.empty_flushes": series["schedd_empty_flushes_total"],
		"service.rejects":       series["schedd_rejected_total"],
		"submitted":             series["schedd_submitted_total"],
		"finished":              series["schedd_finished_total"],
		"failed":                series["schedd_failed_total"],
	}
	if n := series["schedd_batch_size_count"]; n > 0 {
		out["service.batch_size_mean"] = series["schedd_batch_size_sum"] / n
	}
	return out
}

// reconcile checks the daemon's counters against the client's view: every
// accepted cloudlet was counted as submitted, none was refused, and —
// unless some are known to be stuck — every one reached a terminal state.
func reconcile(ls loopStats, stuck bool) error {
	s := ls.scraped
	var errs []error
	if int(s["submitted"]) != ls.accepted {
		errs = append(errs, fmt.Errorf("daemon counted %v submitted cloudlets, client had %d accepted", s["submitted"], ls.accepted))
	}
	if s["service.rejects"] != 0 {
		errs = append(errs, fmt.Errorf("daemon refused %v cloudlets under a window below QueueCap", s["service.rejects"]))
	}
	if !stuck && int(s["finished"]+s["failed"]) != ls.accepted {
		errs = append(errs, fmt.Errorf("daemon finished %v and failed %v of %d accepted cloudlets", s["finished"], s["failed"], ls.accepted))
	}
	if s["failed"] != 0 {
		errs = append(errs, fmt.Errorf("daemon failed %v cloudlets", s["failed"]))
	}
	return errors.Join(errs...)
}

// batchBench times, outside the daemon, the two halves of one shard's work
// on a batch-sized batch: the base mapper's Schedule over the shard's VMs,
// and a fresh session's SubmitPlaced and Run of that mapping.
type batchBench struct {
	env    *cloud.Environment
	vms    []*cloud.VM
	mapper sched.Scheduler
	rows   []workload.TraceEntry
	rnd    *rand.Rand
}

func newBatchBench(seed uint64, rows []workload.TraceEntry) (*batchBench, error) {
	env, err := scheddEnv(seed)
	if err != nil {
		return nil, err
	}
	parts, err := cloud.PartitionVMs(env.VMs, scheddShards)
	if err != nil {
		return nil, err
	}
	mapper, err := sched.New("base")
	if err != nil {
		return nil, err
	}
	return &batchBench{env: env, vms: parts[0], mapper: mapper, rows: rows, rnd: rand.New(rand.NewSource(int64(seed)))}, nil
}

// run maps and executes the i-th batch of the rows and checks that the
// mapping is valid and every cloudlet finishes.
func (b *batchBench) run(tr *Tracer, i int) error {
	off := (i * scheddBatch) % (len(b.rows) - scheddBatch)
	cls := make([]*cloud.Cloudlet, scheddBatch)
	for j, e := range b.rows[off : off+scheddBatch] {
		c := e.Cloudlet
		cls[j] = cloud.NewCloudlet(j, c.Length, c.PEs, c.FileSize, c.OutputSize)
	}
	ctx := &sched.Context{Cloudlets: cls, VMs: b.vms, Datacenters: b.env.Datacenters, Rand: b.rnd}

	run := tr.NewRun()
	sp := tr.Begin(run, -1, "sched.schedule.batch")
	assignments, err := b.mapper.Schedule(ctx)
	tr.End(run, sp)
	tr.FinishRun(run)
	if err != nil {
		return err
	}
	if err := sched.ValidateAssignments(ctx, assignments); err != nil {
		return err
	}

	run = tr.NewRun()
	sp = tr.Begin(run, -1, "online.session_run.batch")
	session, err := online.NewSubsetSession(b.env, b.vms, nil, cloud.TimeSharedFactory)
	if err == nil {
		for _, a := range assignments {
			if err = session.SubmitPlaced(a.Cloudlet, a.VM); err != nil {
				break
			}
		}
	}
	var finished []*cloud.Cloudlet
	if err == nil {
		finished = session.Run()
	}
	tr.End(run, sp)
	tr.FinishRun(run)
	if err != nil {
		return err
	}
	if len(finished) != len(cls) {
		return fmt.Errorf("standalone batch: %d of %d cloudlets finished", len(finished), len(cls))
	}
	return nil
}
