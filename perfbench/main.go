// Command perfbench is devigo's repository benchmark. It runs one of four
// seeded MPI-X workloads through the library's public entry points for a
// fixed time, checks every repetition against an independent reference,
// and prints each metric by name with its unit, its sample count and its
// quartiles; the last line of standard output is a JSON summary.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics from untraced repetitions.
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer table, the tracing overhead and the host's triad bandwidth.
// README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"devigo/internal/obs"
)

// watchdog bounds one invocation: a hung repetition must not outlive the
// benchmark's time limit.
const watchdog = 170 * time.Second

func main() {
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v, giving up\n", watchdog)
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 10, "measurement time")
	trace := fs.Int("trace", 0, "1 adds traced repetitions and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, kv := range scrubEnv() {
		fmt.Fprintf(stdout, "env dropped %s (every knob is pinned by the workload)\n", kv)
	}
	if n := runtime.NumCPU(); w.lanes() > n {
		fmt.Fprintf(stderr, "perfbench: %s needs %d cores, the host has %d\n", w.name, w.lanes(), n)
		return 1
	}
	host := probeHost()
	hj, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hj)

	res, err := measure(w, makeInputs(w, *seed), time.Duration(*seconds)*time.Second, *trace == 1, host, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res.spans != nil {
		dir := ".bench_build"
		path := filepath.Join(dir, fmt.Sprintf("perfbench-%s-seed%d.trace.json", w.name, *seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = res.spans.writeChrome(path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing the span trace:", err)
		}
	}
	if err := res.print(stdout, w, *seed); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// scrubEnv drops every DEVIGO_* variable before any operator is built:
// each workload pins engine, workers, halo mode, time tile, autotune and
// cache explicitly, and tracing must come only from --trace. It returns
// what it dropped, so the run records the override.
func scrubEnv() []string {
	var dropped []string
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "DEVIGO_") {
			os.Unsetenv(k)
			dropped = append(dropped, kv)
		}
	}
	return dropped
}

// outcome is one repetition's measurement and oracle verdict.
type outcome struct {
	setup, run, allocMB float64
	// steal is the share of the host's CPU time its hypervisor took
	// during the repetition.
	steal  float64
	bad    []string
	config string
	// layers and steps are filled for traced repetitions only.
	layers map[string]float64
	steps  []float64
}

// bench runs repetitions of one workload on one seed's inputs.
type bench struct {
	w     workload
	in    inputs
	triad float64
	// triadNote states the probe's array and cache sizes.
	triadNote string
	fref      *forwardRef
	sref      *surveyRef
	log       *spanLog
}

func newBench(w workload, in inputs) (*bench, error) {
	b := &bench{w: w, in: in, log: &spanLog{}}
	var err error
	if w.shots > 0 {
		b.sref, err = newSurveyRef(w, in)
	} else {
		b.fref, err = newForwardRef(w, in)
	}
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return b, nil
}

// rep runs one repetition; traced ones record benchmark spans under run
// id and the program's obs spans and counters.
func (b *bench) rep(id string, traced bool) (*outcome, error) {
	var log *spanLog
	if traced {
		b.log.run = id
		log = b.log
		obs.Reset()
		obs.EnableTracing()
		defer obs.DisableAll()
	}
	if b.w.shots > 0 {
		rep, err := runSurvey(b.w, b.in, log)
		if err != nil {
			return nil, err
		}
		o := &outcome{setup: rep.setup, run: rep.run, allocMB: rep.allocMB, bad: b.sref.check(rep),
			config: fmt.Sprintf("%+v x %d shot workers", rep.cfg, b.w.shotWorkers)}
		if traced {
			obs.DisableAll()
			o.layers, err = surveyLayers(b.w, rep, log, obs.Snapshot())
		}
		return o, err
	}
	rep, err := runForward(b.w, b.in, log)
	if err != nil {
		return nil, err
	}
	defer rep.close()
	o := &outcome{setup: rep.setup, run: rep.run, allocMB: rep.allocMB, bad: b.fref.check(b.w, rep),
		config: fmt.Sprintf("%+v x %d ranks", rep.ranks[0].op.Config(), b.w.ranks)}
	if traced {
		obs.DisableAll()
		o.layers = forwardLayers(b.w, rep, log, obs.Snapshot(), b.triad)
		o.steps = rep.ranks[0].steps
	}
	return o, nil
}

// figure is one reported metric with its samples.
type figure struct {
	metric
	samples []float64
	note    string
}

func (f figure) value() float64 { return median(f.samples) }

// result is everything one invocation reports.
type result struct {
	attempted, failed int
	// stealNote says how many repetitions the medians use.
	stealNote string
	config    string
	failures  []string
	figures   []figure
	spans     *spanLog
}

// measure runs repetitions of w for budget (at least one of each kind it
// needs) and reduces them to the figures of the end-to-end metrics, or
// with traced set, of the per-layer metrics.
func measure(w workload, in inputs, budget time.Duration, traced bool, host hostInfo, diag io.Writer) (*result, error) {
	t0 := time.Now()
	b, err := newBench(w, in)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(diag, "perfbench: reference run took %.2fs\n", time.Since(t0).Seconds())
	res := &result{}
	if traced {
		ab := triadArrayBytes(host.LLCBytes)
		b.triad = triadGBs(ab)
		b.triadNote = fmt.Sprintf("3 arrays of %d MiB each, LLC %d MiB", ab>>20, host.LLCBytes>>20)
	}
	var plain, tracedOut []*outcome
	short := func() bool { return len(plain) == 0 || (traced && len(tracedOut) == 0) }
	start := time.Now()
	for i := 0; time.Since(start) < budget || (short() && res.failed < 3); i++ {
		tr := traced && i%2 == 1
		id := fmt.Sprintf("%s/seed%d/rep%d", w.name, in.Seed, i)
		res.attempted++
		steal0, ticks0 := cpuTicks()
		o, err := b.rep(id, tr)
		steal1, ticks1 := cpuTicks()
		if err == nil {
			if ticks1 > ticks0 {
				o.steal = float64(steal1-steal0) / float64(ticks1-ticks0)
			}
			fmt.Fprintf(diag, "perfbench: %s setup %.4fs run %.4fs steal %.1f%%\n", id, o.setup, o.run, 100*o.steal)
		}
		if err == nil && len(o.bad) > 0 {
			err = fmt.Errorf("%s", strings.Join(o.bad, "; "))
		}
		if err != nil {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("%s: %v", id, err))
			fmt.Fprintf(diag, "perfbench: %s failed: %v\n", id, err)
			continue
		}
		res.config = o.config
		if tr {
			tracedOut = append(tracedOut, o)
		} else {
			plain = append(plain, o)
		}
	}
	if short() {
		return nil, fmt.Errorf("no repetition of each kind succeeded; last failure: %s", res.failures[len(res.failures)-1])
	}
	steals := collect(append(append([]*outcome(nil), plain...), tracedOut...), stealOf)
	plain, tracedOut = calm(plain), calm(tracedOut)
	res.stealNote = fmt.Sprintf("%d of %d successful repetitions kept (host steal median %.2f%%)",
		len(plain)+len(tracedOut), len(steals), 100*median(steals))
	if traced {
		res.figures = layerFigures(w, plain, tracedOut, steals, b.triad, b.triadNote)
		res.spans = b.log
	} else {
		res.figures = endToEndFigures(w, plain)
	}
	return res, nil
}

// calmSteal is the stolen share below which a repetition counts as
// undisturbed.
const calmSteal = 0.01

func stealOf(o *outcome) float64 { return o.steal }

// calm keeps the repetitions the hypervisor left alone: those with at
// most calmSteal of the host's CPU time stolen or, where that is fewer
// than a quarter of them, the least-disturbed quarter. Stolen time
// belongs to other tenants, not to the program, and a 2-core workload
// that synchronises often magnifies it. On an undisturbed host every
// repetition is kept.
func calm(outs []*outcome) []*outcome {
	limit := max(calmSteal, percentile(sorted(collect(outs, stealOf)), 25))
	var keep []*outcome
	for _, o := range outs {
		if o.steal <= limit {
			keep = append(keep, o)
		}
	}
	return keep
}

func collect(outs []*outcome, f func(*outcome) float64) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = f(o)
	}
	return v
}

func endToEndFigures(w workload, outs []*outcome) []figure {
	vals := map[string]func(*outcome) float64{
		"setup_s":     func(o *outcome) float64 { return o.setup },
		"run_s":       func(o *outcome) float64 { return o.run },
		"useful_gpts": func(o *outcome) float64 { return w.usefulPoints() / (o.setup + o.run) / 1e9 },
		"alloc_mb":    func(o *outcome) float64 { return o.allocMB },
		"shots_per_s": func(o *outcome) float64 {
			if w.shots > 0 {
				return float64(w.shots) / o.run
			}
			return 1 / (o.setup + o.run)
		},
	}
	figs := make([]figure, len(endToEnd))
	for i, m := range endToEnd {
		figs[i] = figure{metric: m, samples: collect(outs, vals[m.name])}
	}
	return figs
}

func layerFigures(w workload, plain, traced []*outcome, steals []float64, triad float64, triadNote string) []figure {
	var steps []float64
	for _, o := range traced {
		for _, s := range o.steps {
			steps = append(steps, s*1e3)
		}
	}
	tail, pct := stepTail(steps)
	runOf := func(o *outcome) float64 { return o.run }
	special := map[string]figure{
		"core.step_p50_ms":    {samples: steps},
		"core.step_tail_ms":   {samples: []float64{tail}, note: fmt.Sprintf("p%g of %d steps", pct, len(steps))},
		"host.triad_gbs":      {samples: []float64{triad}, note: triadNote},
		"host.steal_frac":     {samples: steals},
		"trace.overhead_frac": {samples: []float64{median(collect(traced, runOf))/median(collect(plain, runOf)) - 1}},
	}
	if w.shots > 0 {
		special["core.step_tail_ms"] = figure{samples: []float64{0}, note: "not observable through RunShots"}
	}
	figs := make([]figure, len(perLayer))
	for i, m := range perLayer {
		f, ok := special[m.name]
		if !ok {
			f.samples = collect(traced, func(o *outcome) float64 { return o.layers[m.name] })
		}
		if m.name == "native.bytes_per_point" {
			f.note = "computed from field streams, cache misses ignored"
		}
		f.metric = m
		figs[i] = f
	}
	return figs
}

// print writes the human-readable report and, as its last line, the
// JSON summary.
func (r *result) print(out io.Writer, w workload, seed int64) error {
	fmt.Fprintf(out, "workload %s seed %d config %s\n", w.name, seed, r.config)
	for _, f := range r.figures {
		s := sorted(f.samples)
		fmt.Fprintf(out, "%-26s %14.6g %-8s n=%d p25=%.6g p75=%.6g %s\n",
			f.name, f.value(), f.unit, len(s), percentile(s, 25), percentile(s, 75), f.note)
	}
	fmt.Fprintf(out, "%-26s %14.6g %-8s n=%d (%d of %d repetitions failed)\n",
		"failed_frac", float64(r.failed)/float64(r.attempted), "1", r.attempted, r.failed, r.attempted)
	fmt.Fprintf(out, "repetitions %s\n", r.stealNote)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, f := range r.figures {
		metrics[f.name] = value{f.value(), f.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding the summary: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
