package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"devigo/internal/core"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/propagators"
	"devigo/internal/sparse"
)

// rankRun is one rank's share of a forward repetition.
type rankRun struct {
	model     *propagators.Model
	op        *core.Operator
	setupEnd  time.Time
	runStart  time.Time
	runEnd    time.Time
	receivers [][]float64
	norm      float64
	mpiBytes  int64
	// steps holds per-step wall seconds (rank 0 of traced repetitions).
	steps []float64
	err   error
}

// forwardRep is one forward repetition: every rank builds its model and
// operator, then runs the time loop through the final global norm.
type forwardRep struct {
	setup, run float64
	allocMB    float64
	ranks      []*rankRun
}

func (r *forwardRep) close() {
	for _, rr := range r.ranks {
		if rr != nil && rr.op != nil {
			rr.op.Close()
		}
	}
}

// runForward runs one repetition. setup ends when every rank holds a
// constructed operator and its sparse source and receivers; the run
// starts after a barrier and ends when the last rank has its norm.
func runForward(w workload, in inputs, log *spanLog) (*forwardRep, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	ranks := make([]*rankRun, w.ranks)
	if w.ranks == 1 {
		ranks[0] = forwardRank(w, in, nil, log)
	} else {
		world := mpi.NewWorld(w.ranks)
		if err := world.Run(func(c *mpi.Comm) { ranks[c.Rank()] = forwardRank(w, in, c, log) }); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms)
	rep := &forwardRep{ranks: ranks, allocMB: float64(ms.TotalAlloc-alloc0) / 1e6}
	var setupEnd, runStart, runEnd time.Time
	for i, rr := range ranks {
		if rr.err != nil {
			rep.close()
			return nil, fmt.Errorf("rank %d: %w", i, rr.err)
		}
		if rr.setupEnd.After(setupEnd) {
			setupEnd = rr.setupEnd
		}
		if runStart.IsZero() || rr.runStart.Before(runStart) {
			runStart = rr.runStart
		}
		if rr.runEnd.After(runEnd) {
			runEnd = rr.runEnd
		}
	}
	rep.setup = setupEnd.Sub(start).Seconds()
	rep.run = runEnd.Sub(runStart).Seconds()
	return rep, nil
}

// forwardRank drives one rank exactly as propagators.Run does, through
// the public Build / NewOperator / Apply and sparse calls, with a span
// around each call into a layer.
func forwardRank(w workload, in inputs, c *mpi.Comm, log *spanLog) *rankRun {
	rr := &rankRun{}
	fail := func(err error) *rankRun { rr.err = err; return rr }
	rank := 0
	cfg := w.config()
	var ctx *core.Context
	if c != nil {
		rank = c.Rank()
		g, err := grid.New(w.shape, nil)
		if err != nil {
			return fail(err)
		}
		dec, err := grid.NewDecomposition(g, c.Size(), nil)
		if err != nil {
			return fail(err)
		}
		cart, err := mpi.CartCreate(c, dec.Topology, nil)
		if err != nil {
			return fail(err)
		}
		mode, err := halo.ParseMode(w.mode)
		if err != nil {
			return fail(err)
		}
		cfg.Decomp, cfg.Rank = dec, rank
		ctx = &core.Context{Comm: c, Cart: cart, Decomp: dec, Mode: mode}
	}

	end := log.begin(rank, "build")
	m, err := propagators.Build(w.model, cfg)
	end()
	if err != nil {
		return fail(err)
	}
	end = log.begin(rank, "newop")
	op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, ctx,
		&core.Options{Name: m.Name, Workers: w.workers, TimeTile: w.k, Engine: engine})
	end()
	if err != nil {
		return fail(err)
	}
	rr.model, rr.op = m, op

	// propagators.Run's defaults: critical dt, a Ricker wavelet peaking
	// at 0.05/dt, injected with the model's scaling.
	dt := m.CriticalDt
	f0 := 0.05 / dt
	wavelet := sparse.RickerWavelet(f0, 1.5/f0, dt, w.nt)
	src, err := sparse.New("src", m.Grid, [][]float64{in.Source})
	if err != nil {
		return fail(err)
	}
	rec, err := sparse.New("rec", m.Grid, in.Receivers)
	if err != nil {
		return fail(err)
	}
	scale := injectionScale(m, dt)
	depth := op.InjectDepth()
	u := m.Fields[m.WaveFields[0]]
	rr.setupEnd = time.Now()
	if c != nil {
		c.Barrier()
	}

	rr.runStart = time.Now()
	mark := rr.runStart
	val := make([]float32, 1)
	post := func(t int) {
		end := log.begin(rank, "inject")
		val[0] = wavelet[t] * scale
		for _, name := range m.SourceFields {
			if err := src.InjectDeep(m.Fields[name], t+1, val, depth); err != nil && rr.err == nil {
				rr.err = err
			}
		}
		end()
		end = log.begin(rank, "interp")
		rr.receivers = append(rr.receivers, rec.Interpolate(u, t+1, c))
		end()
		if log != nil && rank == 0 {
			now := time.Now()
			rr.steps = append(rr.steps, now.Sub(mark).Seconds())
			mark = now
		}
	}
	end = log.begin(rank, "apply")
	err = op.Apply(&core.ApplyOpts{TimeM: 0, TimeN: w.nt - 1,
		Syms: map[string]float64{"dt": dt}, PostStep: post, Autotune: "off"})
	end()
	if err != nil {
		return fail(err)
	}
	end = log.begin(rank, "norm")
	rr.norm = globalNorm(u, w.nt, c)
	end()
	rr.runEnd = time.Now()
	if c != nil {
		rr.mpiBytes = c.Transport().Stats().BytesSent
	}
	return rr
}

// injectionScale is propagators.Run's source scaling: dt^2/m for
// second-order-in-time models, dt for first-order systems.
func injectionScale(m *propagators.Model, dt float64) float32 {
	if len(m.Fields[m.WaveFields[0]].Bufs) == 3 {
		mval := m.Fields["m"].AtDomain(0, make([]int, m.Grid.NDims())...)
		return float32(dt * dt / float64(mval))
	}
	return float32(dt)
}

// globalNorm is the L2 norm of f's domain at time buffer t, all-reduced
// over the world.
func globalNorm(f *field.Function, t int, c *mpi.Comm) float64 {
	dom := f.DomainRegion()
	tmp := make([]float32, dom.Size())
	f.Buf(t).Pack(dom, tmp)
	sum := 0.0
	for _, v := range tmp {
		sum += float64(v) * float64(v)
	}
	if c != nil && c.Size() > 1 {
		sum = c.AllreduceScalar(sum, mpi.OpSum)
	}
	return math.Sqrt(sum)
}

// ownedRows calls fn for every row of f's owned domain at time buffer t,
// with the row's values and the offset of its first point in the
// row-major global array of shape gshape.
func ownedRows(f *field.Function, gshape []int, t int, fn func(row []float32, g int)) {
	dom := f.DomainRegion()
	tmp := make([]float32, dom.Size())
	f.Buf(t).Pack(dom, tmp)
	nd := len(gshape)
	stride := make([]int, nd)
	s := 1
	for d := nd - 1; d >= 0; d-- {
		stride[d] = s
		s *= gshape[d]
	}
	ls := f.LocalShape
	rowLen := ls[nd-1]
	idx := make([]int, nd)
	for src := 0; src < len(tmp); src += rowLen {
		g := 0
		for d := 0; d < nd; d++ {
			g += (f.Origin[d] + idx[d]) * stride[d]
		}
		fn(tmp[src:src+rowLen], g)
		for d := nd - 2; d >= 0; d-- {
			if idx[d]++; idx[d] < ls[d] {
				break
			}
			idx[d] = 0
		}
	}
}

// forwardRef is the oracle of a forward workload: the same seeded inputs
// run serially (one rank, no decomposition) through propagators.Run on
// the bytecode engine, which shares neither the native kernels nor the
// halo code with the measured runs. It uses as many pool workers as the
// workload keeps cores busy; results are bit-exact at any worker count.
type forwardRef struct {
	field     []float32
	receivers [][]float64
	norm      float64
}

func newForwardRef(w workload, in inputs) (*forwardRef, error) {
	m, err := propagators.Build(w.model, w.config())
	if err != nil {
		return nil, err
	}
	res, err := propagators.Run(m, nil, propagators.RunConfig{NT: w.nt,
		SourceCoords: in.Source, ReceiverCoords: in.Receivers,
		Engine: "bytecode", Workers: w.lanes(), TimeTile: 1, Autotune: "off"})
	if err != nil {
		return nil, err
	}
	res.Op.Close()
	ref := &forwardRef{field: make([]float32, int(w.points())), receivers: res.Receivers, norm: res.Norm}
	ownedRows(m.Fields[m.WaveFields[0]], w.shape, w.nt, func(row []float32, g int) { copy(ref.field[g:], row) })
	return ref, nil
}

// relTol is the repository's differential-suite tolerance for
// all-reduced values: wavefields are bit-exact across engines, halo
// modes, time tiles and rank counts, but the all-reduced norm and
// receiver samples may differ from the serial run by reduction order.
const relTol = 1e-9

// check compares a repetition against the reference and returns every
// mismatch or non-finite value found (nil when the outputs are correct).
func (ref *forwardRef) check(w workload, rep *forwardRep) []string {
	var bad []string
	for r, rr := range rep.ranks {
		mism := 0
		ownedRows(rr.model.Fields[rr.model.WaveFields[0]], w.shape, w.nt, func(row []float32, g int) {
			for i, v := range row {
				if math.Float32bits(v) != math.Float32bits(ref.field[g+i]) {
					mism++
				}
			}
		})
		if mism > 0 {
			bad = append(bad, fmt.Sprintf("rank %d: %d wavefield points differ from the reference", r, mism))
		}
	}
	r0 := rep.ranks[0]
	if !finite(r0.norm) || math.Abs(r0.norm-ref.norm) > relTol*math.Max(1, ref.norm) {
		bad = append(bad, fmt.Sprintf("norm %v, reference %v", r0.norm, ref.norm))
	}
	if len(r0.receivers) != len(ref.receivers) {
		return append(bad, fmt.Sprintf("%d receiver steps, reference %d", len(r0.receivers), len(ref.receivers)))
	}
	for t, row := range r0.receivers {
		if len(row) != len(ref.receivers[t]) {
			return append(bad, fmt.Sprintf("step %d: %d receivers, reference %d", t, len(row), len(ref.receivers[t])))
		}
		for i, v := range row {
			want := ref.receivers[t][i]
			if !finite(v) || math.Abs(v-want) > relTol*math.Max(1e-6, math.Abs(want)) {
				return append(bad, fmt.Sprintf("receiver (%d,%d) = %v, reference %v", t, i, v, want))
			}
		}
	}
	return bad
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
