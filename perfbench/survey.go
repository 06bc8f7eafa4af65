package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"devigo/internal/core"
	"devigo/internal/opcache"
	"devigo/internal/propagators"
)

// dotRelTol bounds each shot's adjoint dot-product gap. The exact-dyadic
// certification of the adjoint holds 1e-8; this survey's float32 Ricker
// source and so-8 coefficients are not exact, so it is held to the bound
// the repository's realistic-configuration adjoint test applies.
const dotRelTol = 2e-5

// surveyRep is one repetition of a shot survey: a set-up that builds the
// survey's model and compiles its forward operator into the survey's
// cache, then one RunShots over every shot.
type surveyRep struct {
	setup, run float64
	allocMB    float64
	res        *propagators.ShotsResult
	// cfg and the per-point counts describe the forward operator the
	// set-up compiled.
	cfg            core.EffectiveConfig
	flopsPerPoint  int
	instrsPerPoint int
	streams        int
}

func shotsConfig(w workload, in inputs, shotWorkers int, cache *opcache.Cache) propagators.ShotsConfig {
	shots := make([]propagators.Shot, len(in.Shots))
	for i, s := range in.Shots {
		shots[i].SourceCoords = s
	}
	return propagators.ShotsConfig{
		Gradient: propagators.GradientConfig{NT: w.nt, ReceiverCoords: in.Receivers,
			Workers: w.workers, TimeTile: w.k, Engine: engine, Autotune: "off"},
		Shots: shots, Workers: shotWorkers, Ranks: w.ranks, Cache: cache,
	}
}

func runSurvey(w workload, in inputs, log *spanLog) (*surveyRep, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	cache := opcache.New()
	end := log.begin(0, "build")
	m, err := propagators.Build(w.model, w.config())
	end()
	if err != nil {
		return nil, err
	}
	end = log.begin(0, "newop")
	op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil,
		&core.Options{Name: m.Name, Workers: w.workers, TimeTile: w.k, Engine: engine, Cache: cache})
	end()
	if err != nil {
		return nil, err
	}
	rep := &surveyRep{cfg: op.Config(), flopsPerPoint: op.FlopsPerPointOptimized(),
		instrsPerPoint: op.Profile().InstrsPerPoint, streams: op.StreamCount()}
	op.Close()
	setupEnd := time.Now()
	end = log.begin(0, "survey")
	rep.res, err = propagators.RunShots(w.model, w.config(), shotsConfig(w, in, w.shotWorkers, cache))
	end()
	if err != nil {
		return nil, err
	}
	runEnd := time.Now()
	runtime.ReadMemStats(&ms)
	rep.setup = setupEnd.Sub(start).Seconds()
	rep.run = runEnd.Sub(setupEnd).Seconds()
	rep.allocMB = float64(ms.TotalAlloc-alloc0) / 1e6
	return rep, nil
}

// surveyRef is the oracle of the survey: the same shots run by one shot
// worker, whose stacked gradient the measured survey must reproduce bit
// for bit.
type surveyRef struct {
	gradient []float32
}

func newSurveyRef(w workload, in inputs) (*surveyRef, error) {
	res, err := propagators.RunShots(w.model, w.config(), shotsConfig(w, in, 1, opcache.New()))
	if err != nil {
		return nil, err
	}
	return &surveyRef{gradient: res.Gradient}, nil
}

func (ref *surveyRef) check(rep *surveyRep) []string {
	var bad []string
	res := rep.res
	if len(res.Gradient) != len(ref.gradient) {
		return append(bad, fmt.Sprintf("gradient has %d points, reference %d", len(res.Gradient), len(ref.gradient)))
	}
	mism := 0
	for i, v := range res.Gradient {
		if math.Float32bits(v) != math.Float32bits(ref.gradient[i]) {
			mism++
		}
	}
	if mism > 0 {
		bad = append(bad, fmt.Sprintf("%d stacked-gradient points differ from the 1-worker survey", mism))
	}
	if !finite(res.GradNorm) || !finite(res.Misfit) {
		bad = append(bad, fmt.Sprintf("gradient norm %v, misfit %v", res.GradNorm, res.Misfit))
	}
	for _, s := range res.Shots {
		if !finite(s.RelErr) || s.RelErr > dotRelTol {
			bad = append(bad, fmt.Sprintf("shot %d: dot-product gap %g > %g", s.Shot, s.RelErr, dotRelTol))
		}
	}
	return bad
}
