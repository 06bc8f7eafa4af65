package main

import (
	"fmt"
	"math/rand"

	"devigo/internal/propagators"
)

// engine is the execution engine every workload pins.
const engine = "native"

// workload is one benchmark input set: a model, its size and the
// execution configuration every run pins explicitly, so each run executes
// the same program whatever the environment says.
type workload struct {
	name  string
	model string
	shape []int
	so    int
	nbl   int
	nt    int
	// ranks is the in-process MPI world size (1 = serial, no world).
	ranks int
	// workers is the per-rank compute pool size.
	workers int
	// mode is the halo pattern ("" when serial).
	mode string
	// k is the halo-exchange interval (time tile).
	k    int
	nrec int
	// shots > 0 makes the workload a RunShots survey of that many shots,
	// shotWorkers of them in flight, each on one serial rank.
	shots       int
	shotWorkers int
}

// workloads are the benchmark's inputs. BENCHMARK.json and README.md give
// the reason for each; the sizes keep one repetition near one to three
// seconds on a 2-core host so a run holds several repetitions.
var workloads = []workload{
	{name: "tti2d-pool", model: "tti", shape: []int{320, 320}, so: 16, nbl: 40, nt: 80,
		ranks: 1, workers: 2, k: 1, nrec: 64},
	{name: "acoustic3d-full", model: "acoustic", shape: []int{192, 192, 192}, so: 8, nbl: 40, nt: 20,
		ranks: 2, workers: 1, mode: "full", k: 1, nrec: 64},
	{name: "acoustic2d-tiled", model: "acoustic", shape: []int{768, 768}, so: 8, nbl: 40, nt: 300,
		ranks: 2, workers: 1, mode: "diag", k: 4, nrec: 64},
	{name: "fwi-survey", model: "acoustic", shape: []int{192, 192}, so: 8, nbl: 40, nt: 200,
		ranks: 1, workers: 1, k: 1, nrec: 64, shots: 8, shotWorkers: 2},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// lanes is the number of cores the workload keeps busy at once.
func (w workload) lanes() int {
	if w.shots > 0 {
		return w.shotWorkers * w.ranks * w.workers
	}
	return w.ranks * w.workers
}

// points is the number of owned global domain points.
func (w workload) points() float64 {
	p := 1.0
	for _, s := range w.shape {
		p *= float64(s)
	}
	return p
}

// usefulPoints is the grid-point updates a repetition is credited with:
// owned domain points times timesteps, per sweep. A survey shot makes
// two sweeps (forward and adjoint); the forward segments its
// checkpointed reverse sweep recomputes are not credited, and neither
// are time-tile shell points or CIRE extended-box points.
func (w workload) usefulPoints() float64 {
	if w.shots > 0 {
		return w.points() * float64(w.nt) * 2 * float64(w.shots)
	}
	return w.points() * float64(w.nt)
}

func (w workload) config() propagators.Config {
	return propagators.Config{Shape: w.shape, SpaceOrder: w.so, NBL: w.nbl, Velocity: 1.5}
}

// inputs are the seeded coordinates a run hands to the program.
type inputs struct {
	Seed      int64
	Source    []float64
	Receivers [][]float64
	Shots     [][]float64
}

// makeInputs draws the source position, the receiver line's placement
// and the shot positions from seed. Every coordinate lies inside the
// absorbing layer plus one stencil radius, in grid units (unit spacing).
func makeInputs(w workload, seed int64) inputs {
	r := rand.New(rand.NewSource(seed))
	nd := len(w.shape)
	lo := float64(w.nbl + w.so/2)
	hi := func(d int) float64 { return float64(w.shape[d]-1) - lo }
	pick := func() []float64 {
		c := make([]float64, nd)
		for d := range c {
			c[d] = lo + r.Float64()*(hi(d)-lo)
		}
		return c
	}
	in := inputs{Seed: seed}
	if w.shots > 0 {
		for i := 0; i < w.shots; i++ {
			in.Shots = append(in.Shots, pick())
		}
	} else {
		in.Source = pick()
	}
	// The receiver line runs along dimension 0; the seed shifts it along
	// the line by under one spacing and picks its position in the others.
	shift := r.Float64()
	at := pick()
	span := hi(0) - lo - 1
	for i := 0; i < w.nrec; i++ {
		c := append([]float64(nil), at...)
		c[0] = lo + shift + span*float64(i)/float64(w.nrec-1)
		in.Receivers = append(in.Receivers, c)
	}
	return in
}
