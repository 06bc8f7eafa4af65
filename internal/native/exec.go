package native

import (
	"fmt"
	"unsafe"

	"devigo/internal/bytecode"
	"devigo/internal/runtime"
)

// xlink is one fused per-point operation, executable form: operand
// pointers are patched per worker (register rows) and per row (field
// accesses), the scalar operand is resolved from the bound pool once per
// worker. kind/exp are copied from the kernel template.
type xlink struct {
	kind       bytecode.LinkKind
	exp        int
	sv         float64
	pa, pb, pc unsafe.Pointer
}

// Operand patch descriptors, precomputed at Wrap time.
type patchF struct {
	li   int32 // link index in the flat array
	pos  int8  // which pointer: 0=pa 1=pb 2=pc
	slot int32
}
type patchR struct {
	li  int32
	pos int8
	reg int32
}
type patchS struct {
	li   int32
	pool int32
}
type patchE struct {
	li int32
	eq int32
}

// tmpl is the kernel's immutable executable template.
type tmpl struct {
	links []xlink // kinds and exponents filled; pointers nil
	fs    []patchF
	rs    []patchR
	ss    []patchS
	es    []patchE
}

// buildTemplate flattens the chain segments' links and derives the patch
// lists from each link kind's operand roles.
func (k *Kernel) buildTemplate(segs []bytecode.Segment) {
	t := &tmpl{}
	li := func() int32 { return int32(len(t.links)) }
	// Operand-role helpers: field access, register row, pool scalar.
	f := func(pos int8, slot int32) { t.fs = append(t.fs, patchF{li(), pos, slot}) }
	r := func(pos int8, reg int32) { t.rs = append(t.rs, patchR{li(), pos, reg}) }
	s := func(pool int32) { t.ss = append(t.ss, patchS{li(), pool}) }
	for _, seg := range segs {
		if seg.Shape == bytecode.ShapeVM {
			continue
		}
		for _, l := range seg.Links {
			x := xlink{kind: l.Kind}
			switch l.Kind {
			case bytecode.LkToRow:
				r(0, l.A)
			case bytecode.LkStore:
				t.es = append(t.es, patchE{li(), l.A})
			case bytecode.LkMovS, bytecode.LkAccAddS, bytecode.LkAccMulS,
				bytecode.LkTMulS, bytecode.LkMergeMaddTS:
				s(l.A)
			case bytecode.LkMulFS, bytecode.LkAddFS, bytecode.LkTMulFS,
				bytecode.LkAccMaddFS, bytecode.LkTMaddFS:
				f(0, l.A)
				s(l.B)
			case bytecode.LkMulRS, bytecode.LkAddRS, bytecode.LkTMulRS,
				bytecode.LkAccMaddRS, bytecode.LkTMaddRS:
				r(0, l.A)
				s(l.B)
			case bytecode.LkMulFF, bytecode.LkAddFF, bytecode.LkTMulFF,
				bytecode.LkAccMaddFF:
				f(0, l.A)
				f(1, l.B)
			case bytecode.LkMulFR, bytecode.LkAddFR, bytecode.LkTMulFR,
				bytecode.LkAccMaddFR:
				f(0, l.A)
				r(1, l.B)
			case bytecode.LkMulRR, bytecode.LkAddRR, bytecode.LkTMulRR,
				bytecode.LkAccMaddRR:
				r(0, l.A)
				r(1, l.B)
			case bytecode.LkPowF:
				f(0, l.A)
				x.exp = int(l.B)
			case bytecode.LkPowR:
				r(0, l.A)
				x.exp = int(l.B)
			case bytecode.LkAccPow:
				x.exp = int(l.A)
			case bytecode.LkMaddFSF:
				f(0, l.A)
				s(l.B)
				f(2, l.C)
			case bytecode.LkMaddFSR:
				f(0, l.A)
				s(l.B)
				r(2, l.C)
			case bytecode.LkMaddRSF:
				r(0, l.A)
				s(l.B)
				f(2, l.C)
			case bytecode.LkMaddRSR:
				r(0, l.A)
				s(l.B)
				r(2, l.C)
			case bytecode.LkMaddFFF:
				f(0, l.A)
				f(1, l.B)
				f(2, l.C)
			case bytecode.LkMaddFFR:
				f(0, l.A)
				f(1, l.B)
				r(2, l.C)
			case bytecode.LkMaddFRF:
				f(0, l.A)
				r(1, l.B)
				f(2, l.C)
			case bytecode.LkMaddFRR:
				f(0, l.A)
				r(1, l.B)
				r(2, l.C)
			case bytecode.LkMaddRRF:
				r(0, l.A)
				r(1, l.B)
				f(2, l.C)
			case bytecode.LkMaddRRR:
				r(0, l.A)
				r(1, l.B)
				r(2, l.C)
			case bytecode.LkAccAddF, bytecode.LkAccMulF, bytecode.LkTMulF,
				bytecode.LkMergeMaddTF:
				f(0, l.A)
			case bytecode.LkAccAddR, bytecode.LkAccMulR, bytecode.LkTMulR,
				bytecode.LkMergeMaddTR:
				r(0, l.A)
			case bytecode.LkMergeMulT, bytecode.LkMergeAddT:
				// no operands beyond the two accumulators
			default:
				panic(fmt.Sprintf("native: unhandled link kind %v", l.Kind))
			}
			t.links = append(t.links, x)
		}
	}
	k.tm = t
}

// exec is the per-worker executable state: a private copy of the link
// array with register-row pointers and pool scalars resolved, plus the
// worker's accumulator and scratch strips.
type exec struct {
	links   []xlink
	acc, tt []float64
}

func setPtr(l *xlink, pos int8, p unsafe.Pointer) {
	switch pos {
	case 0:
		l.pa = p
	case 1:
		l.pb = p
	default:
		l.pc = p
	}
}

// patchRow points every field operand at the current row. The single
// bounds check per operand here replaces the VM's per-instruction slice
// checks; a violation panics exactly where the VM's slicing would.
func (k *Kernel) patchRow(e *exec, n int, bases []int) {
	tb := &k.sched.Tables
	for _, p := range k.tm.fs {
		off := bases[tb.Slots[p.slot].Field] + tb.SlotOff[p.slot]
		data := tb.SlotData[p.slot]
		if off < 0 || off+n > len(data) {
			panic(fmt.Sprintf("native: row [%d:%d) out of bounds of slot %d (len %d)",
				off, off+n, p.slot, len(data)))
		}
		setPtr(&e.links[p.li], p.pos, unsafe.Pointer(&data[off]))
	}
	for _, p := range k.tm.es {
		off := bases[tb.Outs[p.eq].Field]
		data := tb.OutData[p.eq]
		if off < 0 || off+n > len(data) {
			panic(fmt.Sprintf("native: store row [%d:%d) out of bounds of eq %d (len %d)",
				off, off+n, p.eq, len(data)))
		}
		e.links[p.li].pa = unsafe.Pointer(&data[off])
	}
}

// natScratch is one worker's private sweep state: the register file, the
// Run's bound scalar pool and a cached exec whose register-row pointers
// are re-patched (allocation-free) whenever the row pitch or the register
// backing array changes.
type natScratch struct {
	regs   []float64
	pool   []float64
	ex     *exec
	stride int
}

// Prep implements runtime.Body: it readies worker scratch sc for a Run
// whose rows are at most maxRow points long. Register rows are re-pointed
// only when geometry changed; scalar-pool values are refreshed every Run
// (BindSyms produces a new pool per operator/shot). Steady state with
// unchanged geometry performs no allocation.
func (k *Kernel) Prep(sc *natScratch, pool []float64, maxRow int) {
	if regLen := k.bk.NumRegisters() * maxRow; len(sc.regs) < regLen {
		sc.regs = make([]float64, regLen)
		sc.ex = nil
	}
	if sc.ex == nil {
		sc.ex = &exec{
			links: append([]xlink(nil), k.tm.links...),
			acc:   make([]float64, stripN),
			tt:    make([]float64, stripN),
		}
		sc.stride = -1
	}
	if sc.stride != maxRow {
		sc.stride = maxRow
		for _, p := range k.tm.rs {
			setPtr(&sc.ex.links[p.li], p.pos, unsafe.Pointer(&sc.regs[int(p.reg)*maxRow]))
		}
	}
	for _, p := range k.tm.ss {
		sc.ex.links[p.li].sv = pool[p.pool]
	}
	sc.pool = pool
}

// Row implements runtime.Body: every segment once over one row of n
// points — fused chains through the patched exec, VM segments through the
// bytecode row sweep.
func (k *Kernel) Row(sc *natScratch, bases []int, n int) {
	k.patchRow(sc.ex, n, bases)
	for i := range k.segs {
		seg := &k.segs[i]
		if seg.Shape == bytecode.ShapeVM {
			bytecode.Sweep(seg.VM, &k.sched.Tables, sc.regs, sc.stride, n, bases, sc.pool)
			continue
		}
		sc.ex.runChain(sc.ex.links[seg.lkLo:seg.lkHi], n)
	}
}

// Run executes the program at every point of the box for logical
// timestep t. It preserves the engine execution contract exactly —
// row-major point order, equations in program order at each point, the
// shared tile scheduler — so all halo-exchange modes run unchanged, and
// results are bit-identical for every worker count.
func (k *Kernel) Run(t int, b runtime.Box, pool []float64, opts *runtime.ExecOpts) {
	k.sched.Run(t, b, pool, opts)
}

// RunDirect executes the box in one plain serial tile loop on the caller,
// bypassing pool dispatch (runtime.Sched.RunDirect): the baseline
// devigo-bench's hybrid experiment measures the scheduler against.
func (k *Kernel) RunDirect(t int, b runtime.Box, pool []float64, tileRows int) {
	k.sched.RunDirect(t, b, pool, tileRows)
}
