package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"devigo/internal/obs"
)

// metric names one reported figure and its unit.
type metric struct {
	name, unit string
}

// endToEnd and perLayer list every metric a run reports, in the order
// BENCHMARK.json declares them; the self-test holds the two in step.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"useful_gpts", "GPts/s"},
	{"shots_per_s", "1/s"},
	{"alloc_mb", "MB"},
}

var perLayer = []metric{
	{"propagators.build_s", "s"},
	{"core.newop_s", "s"},
	{"core.compute_s", "s"},
	{"native.gflops", "GFLOP/s"},
	{"native.flops_per_point", "flop"},
	{"native.instrs_per_point", "instr"},
	{"native.bytes_per_point", "B"},
	{"native.bw_frac", "1"},
	{"runtime.pool_sync_s", "s"},
	{"runtime.pool_idle_s", "s"},
	{"runtime.steal_count", "count"},
	{"core.halo_s", "s"},
	{"halo.step_msgs", "count"},
	{"halo.step_bytes", "B"},
	{"halo.preamble_bytes", "B"},
	{"halo.recv_wait_s", "s"},
	{"mpi.bytes", "B"},
	{"core.shell_frac", "1"},
	{"core.effective_k", "steps"},
	{"core.step_p50_ms", "ms"},
	{"core.step_tail_ms", "ms"},
	{"sparse.inject_s", "s"},
	{"sparse.interp_s", "s"},
	{"checkpoint.saves", "count"},
	{"checkpoint.restores", "count"},
	{"shotsched.shot_p50_s", "s"},
	{"shotsched.shot_max_s", "s"},
	{"shotsched.busy_frac", "1"},
	{"opcache.compiles", "count"},
	{"opcache.hit_rate", "1"},
	{"core.unattributed_frac", "1"},
	{"host.triad_gbs", "GB/s"},
	{"host.steal_frac", "1"},
	{"trace.overhead_frac", "1"},
}

// span is one timed call into a layer, made from the benchmark's side.
// Spans of one repetition share its run id.
type span struct {
	run   string
	rank  int
	name  string
	start time.Time
	dur   time.Duration
}

// spanLog keeps the spans of traced repetitions in memory. A nil log
// records nothing, so untraced repetitions pay no timing cost.
type spanLog struct {
	mu    sync.Mutex
	run   string
	spans []span
}

var noop = func() {}

// begin opens a span and returns the call that closes it.
func (l *spanLog) begin(rank int, name string) func() {
	if l == nil {
		return noop
	}
	t := time.Now()
	return func() {
		d := time.Since(t)
		l.mu.Lock()
		l.spans = append(l.spans, span{run: l.run, rank: rank, name: name, start: t, dur: d})
		l.mu.Unlock()
	}
}

// total sums the durations of the current run's spans of one name on one
// rank, in seconds.
func (l *spanLog) total(rank int, name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var d time.Duration
	for _, s := range l.spans {
		if s.run == l.run && s.rank == rank && s.name == name {
			d += s.dur
		}
	}
	return d.Seconds()
}

// maxTotal is total's maximum over ranks: the slowest rank's time.
func (l *spanLog) maxTotal(ranks int, name string) float64 {
	m := 0.0
	for r := 0; r < ranks; r++ {
		m = max(m, l.total(r, name))
	}
	return m
}

// writeChrome writes every span as a Chrome trace-event file (load it in
// Perfetto): one process per rank, the run id in each event's args.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var epoch time.Time
	for _, s := range l.spans {
		if epoch.IsZero() || s.start.Before(epoch) {
			epoch = s.start
		}
	}
	var b bytes.Buffer
	b.WriteString(`{"traceEvents":[`)
	for i, s := range l.spans {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"ph":"X","name":%q,"cat":"perfbench","pid":%d,"tid":0,"ts":%.3f,"dur":%.3f,"args":{"run":%q}}`,
			s.name, s.rank, float64(s.start.Sub(epoch).Nanoseconds())/1e3, float64(s.dur.Nanoseconds())/1e3, s.run)
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// forwardLayers is the layer table of one traced forward repetition.
// Times that every rank spends are the slowest rank's; the closure check
// uses rank 0's own layers against the run's wall time.
func forwardLayers(w workload, rep *forwardRep, log *spanLog, snap obs.Metrics, triadGBs float64) map[string]float64 {
	var compute, halo float64
	var executed int64
	var mpiBytes int64
	for _, rr := range rep.ranks {
		p := rr.op.Report()
		compute = max(compute, p.ComputeSeconds)
		halo = max(halo, p.HaloSeconds)
		executed += p.PointsUpdated
		mpiBytes += rr.mpiBytes
	}
	op0 := rep.ranks[0].op
	p0 := op0.Report()
	flops := float64(op0.FlopsPerPointOptimized())
	bytesPP := 4 * float64(op0.StreamCount())
	l := commonLayers(snap)
	l["propagators.build_s"] = log.maxTotal(w.ranks, "build")
	l["core.newop_s"] = log.maxTotal(w.ranks, "newop")
	l["core.compute_s"] = compute
	l["core.halo_s"] = halo
	l["native.flops_per_point"] = flops
	l["native.instrs_per_point"] = float64(op0.Profile().InstrsPerPoint)
	l["native.bytes_per_point"] = bytesPP
	if compute > 0 {
		l["native.gflops"] = flops * float64(executed) / compute / 1e9
		if triadGBs > 0 {
			l["native.bw_frac"] = bytesPP * float64(executed) / compute / 1e9 / triadGBs
		}
	}
	l["mpi.bytes"] = float64(mpiBytes)
	l["core.shell_frac"] = float64(snap.Total.ShellPoints) / w.usefulPoints()
	l["core.effective_k"] = float64(op0.Config().TimeTile)
	l["sparse.inject_s"] = log.maxTotal(w.ranks, "inject")
	l["sparse.interp_s"] = log.maxTotal(w.ranks, "interp")
	own := p0.ComputeSeconds + p0.HaloSeconds + log.total(0, "inject") + log.total(0, "interp") + log.total(0, "norm")
	l["core.unattributed_frac"] = 1 - own/rep.run
	return l
}

// surveyLayers is the layer table of one traced survey repetition. The
// shots' per-step work is not observable from outside RunShots, so the
// compute, halo and closure figures come from the program's own obs
// spans; per-step latency, sparse time and the achieved kernel rate are
// not observable there and read 0.
func surveyLayers(w workload, rep *surveyRep, log *spanLog, snap obs.Metrics) (map[string]float64, error) {
	phases, err := obsPhaseSeconds()
	if err != nil {
		return nil, err
	}
	l := commonLayers(snap)
	l["propagators.build_s"] = log.total(0, "build")
	l["core.newop_s"] = log.total(0, "newop")
	l["core.compute_s"] = phases["compute"] + phases["shell"]
	l["core.halo_s"] = phases["exchange"]
	l["native.flops_per_point"] = float64(rep.flopsPerPoint)
	l["native.instrs_per_point"] = float64(rep.instrsPerPoint)
	l["native.bytes_per_point"] = 4 * float64(rep.streams)
	l["core.shell_frac"] = float64(snap.Total.ShellPoints) / w.usefulPoints()
	l["core.effective_k"] = float64(rep.cfg.TimeTile)
	secs := make([]float64, len(rep.res.Shots))
	busy := 0.0
	for i, s := range rep.res.Shots {
		secs[i] = s.Seconds
		busy += s.Seconds
	}
	l["shotsched.shot_p50_s"] = median(secs)
	l["shotsched.shot_max_s"] = slices.Max(secs)
	lanes := float64(w.shotWorkers) * rep.run
	l["shotsched.busy_frac"] = busy / lanes
	l["opcache.hit_rate"] = rep.res.CacheStats.HitRate()
	attributed := phases["compute"] + phases["shell"] + phases["exchange"] + phases["ckpt_save"] + phases["ckpt_restore"]
	l["core.unattributed_frac"] = 1 - attributed/lanes
	return l, nil
}

// commonLayers reads the program's obs counters of one repetition.
func commonLayers(snap obs.Metrics) map[string]float64 {
	t := snap.Total
	l := map[string]float64{
		"runtime.pool_sync_s": float64(t.PoolSyncNs) / 1e9,
		"runtime.pool_idle_s": float64(t.PoolIdleNs) / 1e9,
		"runtime.steal_count": float64(t.StealCount),
		"halo.step_msgs":      float64(t.StepMsgs),
		"halo.step_bytes":     float64(t.StepBytes),
		"halo.preamble_bytes": float64(t.PreambleBytes),
		"halo.recv_wait_s":    float64(t.RecvWaitNs) / 1e9,
		"checkpoint.saves":    float64(t.CkptSaves),
		"checkpoint.restores": float64(t.CkptRestores),
		"opcache.compiles":    float64(t.OpCompiles),
	}
	if n := t.OpCacheHits + t.OpCacheMisses; n > 0 {
		l["opcache.hit_rate"] = float64(t.OpCacheHits) / float64(n)
	}
	return l
}

// obsPhaseSeconds sums the program's recorded obs spans by phase name,
// read back through its Chrome trace export.
func obsPhaseSeconds() (map[string]float64, error) {
	var b bytes.Buffer
	if err := obs.WriteTrace(&b); err != nil {
		return nil, err
	}
	var tr struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &tr); err != nil {
		return nil, fmt.Errorf("reading the obs trace: %w", err)
	}
	out := map[string]float64{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" {
			out[e.Name] += e.Dur / 1e6
		}
	}
	return out, nil
}

// stepTail returns the highest percentile of samples that still has at
// least ten samples beyond it, and that percentile.
func stepTail(samples []float64) (value, pct float64) {
	s := sorted(samples)
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(s))*(1-p/100) >= 10 {
			return percentile(s, p), p
		}
	}
	return percentile(s, 50), 50
}
