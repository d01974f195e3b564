package main

import (
	"runtime"
	"time"
)

// The rounds part drives the same daemon as schedd-closed, but a fresh one
// per round: it reads a columnar trace of roundRows cloudlets, starts the
// daemon, replays every row once through the HTTP handler in the closed
// loop, polls each cloudlet to finished and drains the daemon. Each round
// then maps and executes roundBatches batch-sized batches outside the
// daemon. A fresh daemon starts its shards' simulated clocks at zero, so a
// round exercises intake, routing, the status store, mapping and execution
// on a short clock; schedd-closed is the workload whose clock keeps
// growing.
const (
	roundRows = 16384 // 2048 requests of scheddRequest cloudlets
	// roundDeadline bounds one round. Cloudlets not finished by then count
	// as failed and the round ends.
	roundDeadline = 10 * time.Second
	roundBatches  = 4
)

// roundsPart holds the seeded trace every round replays.
type roundsPart struct {
	seed  uint64
	trace []byte
}

// roundStats is what one phase of rounds measured.
type roundStats struct {
	times    []float64 // seconds per round without a failed operation
	loops    []loopStats
	simClock float64 // largest FinishSim seen in any round
	// Traced rounds only: allocations and GC pause time over the rounds.
	mallocs uint64
	pauseNs uint64
}

// newRoundsPart builds the trace and runs one warm-up round. It returns the
// part and its set-up seconds.
func newRoundsPart(seed uint64, res *Result) (*roundsPart, float64, error) {
	p := &roundsPart{seed: seed}
	start := time.Now()
	var err error
	if p.trace, err = scheddTrace(seed, roundRows); err != nil {
		return nil, 0, err
	}
	setup := time.Since(start).Seconds()
	if _, _, err := scheddRound(res, p.trace, seed, nil); err != nil {
		return nil, 0, err
	}
	return p, setup, nil
}

// setUp builds the trace once more, discarding it, and returns its seconds.
func (p *roundsPart) setUp() (float64, error) {
	start := time.Now()
	_, err := scheddTrace(p.seed, roundRows)
	return time.Since(start).Seconds(), err
}

// round runs one round into rs. A round with a failed operation is left
// out of rs.times.
func (p *roundsPart) round(res *Result, tr *Tracer, rs *roundStats) error {
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	failed := res.out.Failed
	t, ls, err := scheddRound(res, p.trace, p.seed, tr)
	if err != nil {
		return err
	}
	if tr != nil {
		runtime.ReadMemStats(&after)
		rs.mallocs += after.Mallocs - before.Mallocs
		rs.pauseNs += after.PauseTotalNs - before.PauseTotalNs
	}
	rs.loops = append(rs.loops, ls)
	rs.simClock = max(rs.simClock, ls.simClock)
	if res.out.Failed == failed {
		rs.times = append(rs.times, t)
	}
	return nil
}

// reportLayers reports the serving per-layer metrics of a traced phase and
// the tracing overhead against the untraced phase plain.
func (rs *roundStats) reportLayers(res *Result, tr *Tracer, plain *roundStats) {
	res.timing("tracecol.read_s", "s", tr.Self("tracecol.read"))
	res.timing("service.new_s", "s", tr.Self("service.new"))
	res.timing("service.submit_s", "s", tr.Self("service.submit"))
	res.timing("service.coalesce_wait_s", "s", tr.Self("service.coalesce_wait"))
	res.timing("service.map_execute_s", "s", tr.Self("service.map_execute"))
	res.timing("service.status_s", "s", tr.Self("service.status"))
	res.timing("service.scrape_s", "s", tr.Self("service.scrape"))
	res.timing("sched.schedule_s.batch", "s", tr.Self("sched.schedule.batch"))
	res.timing("online.session_run_s.batch", "s", tr.Self("online.session_run.batch"))
	res.set("service.poll_interval_s", "s", rs.median(func(ls loopStats) float64 { return ls.pollPeriod }))
	for _, name := range []string{"service.batches", "service.batch_size_mean", "service.empty_flushes", "service.rejects"} {
		res.set(name, "count", rs.median(func(ls loopStats) float64 { return ls.scraped[name] }))
	}
	completed := 0
	for _, ls := range rs.loops {
		completed += ls.completed
	}
	if completed > 0 {
		res.set("service.allocs_per_cloudlet", "count", float64(rs.mallocs)/float64(completed))
	}
	res.set("gc.pause_s", "s", float64(rs.pauseNs)/1e9/float64(len(rs.loops)))
	res.set("cloud.sim_clock_s", "s", rs.simClock)
	overhead(res, "schedd.round_s", rs.times, plain.times)
}

// scheddRound runs one round on a fresh daemon and returns its wall-clock
// seconds. Failed requests and batches are recorded in res.
func scheddRound(res *Result, trace []byte, seed uint64, tr *Tracer) (float64, loopStats, error) {
	start := time.Now()
	d, err := newDaemon(trace, seed, tr)
	if err != nil {
		return 0, loopStats{}, err
	}
	ls := d.closedLoop(res, loopPlan{measure: roundDeadline, requests: len(d.bodies)}, tr)
	bb, err := newBatchBench(seed, d.rows)
	if err != nil {
		return 0, ls, err
	}
	for i := 0; i < roundBatches; i++ {
		res.op(bb.run(tr, i))
	}
	return time.Since(start).Seconds(), ls, nil
}

// median returns the median over the phase's rounds of one loop figure.
func (rs *roundStats) median(f func(loopStats) float64) float64 {
	xs := make([]float64, len(rs.loops))
	for i, ls := range rs.loops {
		xs[i] = f(ls)
	}
	return Summarize(xs).Median
}

// describe copies the phase's counts into the record under prefix.
func (rs *roundStats) describe(res *Result, prefix string) {
	accepted, failed := 0, 0
	for _, ls := range rs.loops {
		accepted += ls.accepted
		failed += ls.failedReqs
	}
	res.info[prefix+"rounds"] = len(rs.loops)
	res.info[prefix+"accepted_cloudlets"] = accepted
	res.info[prefix+"failed_requests"] = failed
	res.info[prefix+"sim_clock_s"] = rs.simClock
}
