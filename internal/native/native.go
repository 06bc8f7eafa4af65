// Package native executes compiled bytecode programs, for two engine
// names. The native engine, devigo's production executor, runs
// specialized Go bulk-row kernels that execute whole opcode *runs* per
// row instead of dispatching the register VM once per instruction. The
// bytecode engine runs the same program unfused, as one VM segment whose
// row body is bytecode.Sweep: the reference the fused chains are checked
// against.
//
// The native engine reuses the bytecode compiler wholesale — symbolic
// lowering, load caching, madd fusion, scalar-pool hoisting — and then
// re-lowers the compiled row program through bytecode.ExtractSegments
// into fused accumulation chains (see the LinkKind vocabulary in package
// bytecode). Each chain executes over fixed-width strips of the row (256
// points):
// every link dispatches one SIMD primitive over the whole strip — AVX2
// assembly on amd64, an equivalent pure-Go loop elsewhere — with field
// operands read through unsafe pointers patched once per row (one bounds
// check per operand per row instead of per point). The primitives widen
// float32 lanes to float64 exactly as the VM's load opcode does and
// round after every multiply and after every add (multiply and add are
// emitted as separate correctly-rounded IEEE instructions, never FMA) —
// so the engine is bit-exact with the bytecode VM and the interpreter by
// construction, NaN payloads and signed zeros included. Rows split into
// a vectorized n&^3 body plus a per-point scalar tail, so any row width
// runs. Program regions that do not lower to chains fall back to the
// bytecode VM's own row sweep (bytecode.Sweep).
//
// The speedup comes from three removals: the full-row intermediate
// traffic (the VM materializes every instruction's result as a whole
// register row; chain values stream through a cache-resident strip
// accumulator instead), the per-instruction row passes (one fused pass
// per chain), and the per-instruction slice bounds checks (hoisted to
// row-patch time), plus 4-lane SIMD arithmetic inside each primitive.
package native

import (
	"devigo/internal/bytecode"
	"devigo/internal/field"
	"devigo/internal/runtime"
)

// Kernel executes one compiled bytecode program through the shared tile
// scheduler, as a sequence of segments: fused link chains (Wrap, the
// native engine) or the whole program as one VM segment (WrapVM, the
// bytecode engine). It satisfies runtime.ExecKernel.
type Kernel struct {
	// bk supplies the program, scalar pool and register count. Its
	// Binding is the compile-time storage; execution always goes through
	// sched's, which Rebind replaces.
	bk   *bytecode.Kernel
	segs []segment
	tm   *tmpl
	// fusedInstrs is the per-point dispatch count: one per chain link
	// plus one per VM segment instruction.
	fusedInstrs int
	// sched is the kernel's private scheduler state (storage binding and
	// tables, per-worker scratch and cached execs). Allocated at Wrap time
	// and replaced on Rebind, never shared between kernel copies.
	sched *runtime.Sched[natScratch]
}

// segment is one executable region: either a fused link chain or a VM
// instruction list, in program order, with the chain's link range within
// the kernel's flat link array.
type segment struct {
	bytecode.Segment
	lkLo, lkHi int
}

// Wrap lowers a compiled bytecode kernel into fused chain segments (the
// native engine). The result shares bk's immutable program and tables.
func Wrap(bk *bytecode.Kernel) *Kernel { return newKernel(bk, bk.Segments()) }

// WrapVM runs a compiled bytecode kernel's whole row program as one VM
// segment (the bytecode engine): each row is one bytecode.Sweep.
func WrapVM(bk *bytecode.Kernel) *Kernel {
	return newKernel(bk, []bytecode.Segment{{Shape: bytecode.ShapeVM, Hi: len(bk.Program()), VM: bk.Program()}})
}

func newKernel(bk *bytecode.Kernel, segs []bytecode.Segment) *Kernel {
	k := &Kernel{bk: bk, segs: make([]segment, len(segs))}
	nlinks := 0
	for i, s := range segs {
		k.segs[i] = segment{Segment: s}
		if s.Shape != bytecode.ShapeVM {
			k.segs[i].lkLo = nlinks
			nlinks += len(s.Links)
			k.segs[i].lkHi = nlinks
			k.fusedInstrs += len(s.Links)
		} else {
			k.fusedInstrs += len(s.VM)
		}
	}
	k.buildTemplate(segs)
	k.sched = runtime.NewSched[natScratch](k, bk.Binding)
	return k
}

// Bytecode returns the underlying bytecode kernel (introspection for
// tests, the compilation report and the docs' lowering traces).
func (k *Kernel) Bytecode() *bytecode.Kernel { return k.bk }

// Segments returns the segment partition the kernel executes.
func (k *Kernel) Segments() []bytecode.Segment {
	out := make([]bytecode.Segment, len(k.segs))
	for i, s := range k.segs {
		out[i] = s.Segment
	}
	return out
}

// BindSyms delegates to the bytecode kernel: the scalar pool layout and
// the bind-time prelude belong to the compiled program.
func (k *Kernel) BindSyms(vals map[string]float64) ([]float64, error) {
	return k.bk.BindSyms(vals)
}

// FlopsPerPoint reports the per-point flop cost, counted identically to
// the other engines (fusion changes dispatch, not arithmetic).
func (k *Kernel) FlopsPerPoint() int { return k.bk.FlopsPerPoint() }

// StencilRadius returns the per-dimension stencil radius.
func (k *Kernel) StencilRadius() []int { return k.bk.StencilRadius() }

// InstrsPerPoint reports the number of dispatches per grid point: one per
// chain link plus one per VM segment instruction (the scalar prelude runs
// once per Apply, not per point, and is excluded). For the fused form it
// is lower than the program length (loads are absorbed into chain
// operands), which is how the autotuner's cost model ranks the engines;
// for the single-VM-segment form it is the program length.
func (k *Kernel) InstrsPerPoint() int { return k.fusedInstrs }

// Rebind returns a copy of the kernel executing against fields, resolved
// by name (see runtime.Binding.Rebind). Segments, link templates, program
// and scalar pool are shared with the receiver; the copy gets its own
// scheduler state, so the two may run concurrently. This is the opcache
// contract: one compilation serves every shot with the same schedule key.
func (k *Kernel) Rebind(fields map[string]*field.Function) (runtime.ExecKernel, error) {
	bind, err := k.sched.Binding.Rebind(fields)
	if err != nil {
		return nil, err
	}
	nk := *k
	nk.sched = runtime.NewSched[natScratch](&nk, bind)
	return &nk, nil
}
