package bytecode

import "devigo/internal/runtime"

// bcScratch is one worker's register file, grown monotonically when a
// Retarget lengthens rows, plus the Run's bound scalar pool.
type bcScratch struct {
	regs   []float64
	stride int
	pool   []float64
}

// Prep implements runtime.Body: size the register file for rows of up to
// maxRow points and bind the Run's scalar pool.
func (k *Kernel) Prep(sc *bcScratch, pool []float64, maxRow int) {
	if n := k.numRegs * maxRow; len(sc.regs) < n {
		sc.regs = make([]float64, n)
	}
	sc.stride = maxRow
	sc.pool = pool
}

// Row implements runtime.Body: one sweep of the whole program.
func (k *Kernel) Row(sc *bcScratch, bases []int, n int) {
	Sweep(k.prog, &k.sched.Tables, sc.regs, sc.stride, n, bases, sc.pool)
}

// Run executes the compiled program at every point of the box for logical
// timestep t, with the scalar pool from BindSyms. It preserves the
// interpreter's execution contract exactly — row-major point order,
// equations in program order at each point, the shared tile scheduler —
// so all halo-exchange modes run unchanged on either engine, and results
// are bit-identical for every worker count.
func (k *Kernel) Run(t int, b runtime.Box, pool []float64, opts *runtime.ExecOpts) {
	k.sched.Run(t, b, pool, opts)
}

// Sweep executes prog once over one row of n points: the bytecode
// engine's whole row body, and the native engine's body for its VM
// fallback segments. regs is the register file with row pitch stride
// (>= n); tb carries the Run's storage tables; bases[f] is field f's
// buffer index of the row's first point; pool is the bound scalar pool.
func Sweep(prog []Instr, tb *runtime.Tables, regs []float64, stride, n int, bases []int, pool []float64) {
	reg := func(r int32) []float64 {
		off := int(r) * stride
		return regs[off : off+n]
	}
	for pi := range prog {
		in := &prog[pi]
		switch in.Op {
		case opLoad:
			off := bases[tb.Slots[in.B].Field] + tb.SlotOff[in.B]
			src := tb.SlotData[in.B][off : off+n]
			rd := reg(in.Rd)
			for i, v := range src {
				rd[i] = float64(v)
			}
		case opStore:
			off := bases[tb.Outs[in.B].Field]
			dst := tb.OutData[in.B][off : off+n]
			ra := reg(in.A)
			for i, v := range ra {
				dst[i] = float32(v)
			}
		case opCopy:
			copy(reg(in.Rd), reg(in.A))
		case opMovS:
			rd, v := reg(in.Rd), pool[in.B]
			for i := range rd {
				rd[i] = v
			}
		case opAddVV:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			rb := reg(in.B)[:len(rd)]
			for i := range rd {
				rd[i] = ra[i] + rb[i]
			}
		case opAddVS:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			s := pool[in.B]
			for i := range rd {
				rd[i] = ra[i] + s
			}
		case opMulVV:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			rb := reg(in.B)[:len(rd)]
			for i := range rd {
				rd[i] = ra[i] * rb[i]
			}
		case opMulVS:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			s := pool[in.B]
			for i := range rd {
				rd[i] = ra[i] * s
			}
		case opMaddVV:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			rb := reg(in.B)[:len(rd)]
			rc := reg(in.C)[:len(rd)]
			// Mul then add, each rounded: dispatch fusion only. The
			// explicit float64 conversion forces the intermediate
			// rounding (Go spec), forbidding hardware-FMA contraction on
			// arm64 et al. that would break bit-exactness with the
			// interpreter's two ops.
			for i := range rd {
				rd[i] = float64(ra[i]*rb[i]) + rc[i]
			}
		case opMaddVS:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			rc := reg(in.C)[:len(rd)]
			s := pool[in.B]
			for i := range rd {
				rd[i] = float64(ra[i]*s) + rc[i]
			}
		case opPowV:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			e := int(in.B)
			for i := range rd {
				rd[i] = ipow(ra[i], e)
			}
		}
	}
}
