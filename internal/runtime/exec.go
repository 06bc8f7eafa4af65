package runtime

import "devigo/internal/field"

// stackCap bounds expression depth; TTI kernels stay far below this.
const stackCap = 256

// tempCap bounds the per-point CSE temporary register file.
const tempCap = 512

// ExecKernel is the per-cluster execution contract every engine
// satisfies. Run's scalar vector is whatever the same kernel's BindSyms
// produced (the interpreter's symbol bindings, the bytecode program's
// scalar pool). Rebind returns a copy executing against other storage,
// safe to run concurrently with the receiver.
type ExecKernel interface {
	Run(t int, b Box, syms []float64, opts *ExecOpts)
	BindSyms(vals map[string]float64) ([]float64, error)
	Rebind(fields map[string]*field.Function) (ExecKernel, error)
	FlopsPerPoint() int
	InstrsPerPoint() int
	StencilRadius() []int
}

// ExecOpts tunes kernel execution.
type ExecOpts struct {
	// TileRows is the number of outer-dimension rows per tile; the
	// Progress hook runs between tiles. <=0 disables tiling (one tile).
	TileRows int
	// Progress is prodded between tiles (full mode's MPI_Test call site).
	Progress func()
	// Pool dispatches tiles to the persistent worker team; nil (or a
	// one-worker team) runs them inline on the caller.
	Pool *Pool
	// Steal lets pool workers that drain their static block-cyclic stripe
	// claim other workers' remaining tiles. The operator enables it only
	// for the shrinking time-tile shell sweeps.
	Steal bool
}

// Box is a half-open iteration box in domain-relative coordinates
// (0 = first owned point per dimension).
type Box struct {
	Lo, Hi []int
}

// Size returns the point count of the box.
func (b Box) Size() int {
	n := 1
	for d := range b.Lo {
		e := b.Hi[d] - b.Lo[d]
		if e <= 0 {
			return 0
		}
		n *= e
	}
	return n
}

// Empty reports whether the box has no points.
func (b Box) Empty() bool { return b.Size() == 0 }

// irScratch is one worker's private evaluation state: the Run's bound
// scalars, the expression stack and the CSE temporaries.
type irScratch struct {
	syms  []float64
	stack [stackCap]float64
	temps [tempCap]float64
}

// Prep implements Body: the interpreter's scratch is fixed-size, so a Run
// only binds its scalars.
func (k *Kernel) Prep(sc *irScratch, syms []float64, _ int) { sc.syms = syms }

// Row implements Body: every temporary, then every equation, at each
// point of the row.
func (k *Kernel) Row(sc *irScratch, bases []int, n int) {
	tb := &k.sched.Tables
	for x := 0; x < n; x++ {
		for ti := range k.Temps {
			sc.temps[ti] = k.evalEq(sc, &k.Temps[ti], bases, x)
		}
		for ei := range k.Eqs {
			tb.OutData[ei][bases[tb.Outs[ei].Field]+x] = float32(k.evalEq(sc, &k.Eqs[ei], bases, x))
		}
	}
}

// Run executes every equation of the kernel at every point of the box for
// logical timestep t, with scalars bound via syms (from BindSyms). Points
// run in row-major order; equations run in program order at each point.
// Tiles are disjoint row bands, so results are bit-identical for every
// worker count.
func (k *Kernel) Run(t int, b Box, syms []float64, opts *ExecOpts) {
	k.sched.Run(t, b, syms, opts)
}

// evalEq evaluates one compiled equation at row offset x with worker
// scratch sc and the row's per-field bases.
func (k *Kernel) evalEq(sc *irScratch, e *CompiledEq, bases []int, x int) float64 {
	tb := &k.sched.Tables
	sp := 0
	for pi := range e.prog {
		in := &e.prog[pi]
		switch in.op {
		case opConst:
			sc.stack[sp] = in.v
			sp++
		case opSym:
			sc.stack[sp] = sc.syms[in.a]
			sp++
		case opTemp:
			sc.stack[sp] = sc.temps[in.a]
			sp++
		case opLoad:
			sc.stack[sp] = float64(tb.SlotData[in.a][bases[tb.Slots[in.a].Field]+x+tb.SlotOff[in.a]])
			sp++
		case opAdd:
			n := in.a
			acc := sc.stack[sp-n]
			for j := sp - n + 1; j < sp; j++ {
				acc += sc.stack[j]
			}
			sp -= n - 1
			sc.stack[sp-1] = acc
		case opMul:
			n := in.a
			acc := sc.stack[sp-n]
			for j := sp - n + 1; j < sp; j++ {
				acc *= sc.stack[j]
			}
			sp -= n - 1
			sc.stack[sp-1] = acc
		case opPow:
			v := sc.stack[sp-1]
			sc.stack[sp-1] = ipow(v, in.a)
		}
	}
	return sc.stack[0]
}

func ipow(v float64, e int) float64 {
	if e == 0 {
		return 1
	}
	neg := e < 0
	if neg {
		e = -e
	}
	out := 1.0
	for i := 0; i < e; i++ {
		out *= v
	}
	if neg {
		return 1 / out
	}
	return out
}
