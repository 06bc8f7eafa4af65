// Package bytecode is the kernel-compilation subsystem of devigo: it
// lowers the per-point expressions of a loop nest (CSE temporaries plus
// update equations) into a flat, register-based row program, and provides
// the switch-dispatch virtual machine that sweeps it over one row (Sweep)
// and the segment extraction that re-lowers it into fused chains.
//
// A compiled Kernel is a program only. Package native is its one
// executor: the bytecode engine runs the whole program as a single VM
// segment, the native engine runs the extracted chains, and both go
// through the shared tile scheduler of package runtime. The bytecode
// engine is the unfused reference the native chains are checked against.
// Three properties drive the design:
//
//   - Register bytecode, not a stack machine. Every instruction names its
//     operand registers, so the VM never shuffles a stack and duplicate
//     field reads within one nest are compiled to a single load (the
//     register holding a loaded row is reused until an equation stores to
//     that field).
//
//   - Row-sweep execution. A virtual register holds a whole
//     inner-dimension row, and one instruction dispatch processes the
//     whole row, amortizing the switch over the vector length instead of
//     paying it at every grid point.
//
//   - Bind-time scalar hoisting. Subexpressions built purely from
//     constants and scalar symbols — including the 1/dt-style reciprocals
//     introduced by Pow(sym, -1) nodes — are folded at compile time when
//     fully constant, or evaluated once per Apply into a scalar pool
//     (strength-reducing per-point divisions into multiplications by a
//     precomputed reciprocal).
//
// The generated code is bit-exact with the interpreter: every float64
// operation is emitted in the interpreter's evaluation order, the fused
// multiply-add opcode rounds after the multiply and after the add (it
// fuses *dispatch*, not IEEE rounding), and results are rounded to
// float32 only at the store.
package bytecode

import (
	"fmt"

	"devigo/internal/runtime"
)

// Vector opcodes. Each instruction operates on whole inner-dimension rows:
// rd, a and c address row registers; b addresses the scalar pool, a load
// slot, an equation index, an integer exponent — or the second source
// register in the VV forms.
const (
	opLoad   byte = iota // rd[i] = float64(row(slots[b])[i])
	opStore              // row(eqs[b])[i] = float32(reg_a[i])
	opCopy               // rd[i] = reg_a[i]
	opMovS               // rd[i] = pool[b] (broadcast)
	opAddVV              // rd[i] = reg_a[i] + reg_b[i]
	opAddVS              // rd[i] = reg_a[i] + pool[b]
	opMulVV              // rd[i] = reg_a[i] * reg_b[i]
	opMulVS              // rd[i] = reg_a[i] * pool[b]
	opMaddVV             // rd[i] = reg_a[i]*reg_b[i] + reg_c[i]
	opMaddVS             // rd[i] = reg_a[i]*pool[b] + reg_c[i]
	opPowV               // rd[i] = ipow(reg_a[i], b)
)

// Instr is one row-program instruction; field use per opcode is
// documented on the opcode constants.
type Instr struct {
	Op          byte
	Rd, A, B, C int32
}

// Scalar-prelude opcodes, executed once per Bind over the scalar pool.
const (
	sAdd byte = iota // pool[dst] = pool[a] + pool[b]
	sMul             // pool[dst] = pool[a] * pool[b]
	sPow             // pool[dst] = ipow(pool[a], b)
)

type scalarInstr struct {
	op        byte
	dst, a, b int32
}

// Kernel is a compiled loop nest: the flat row program, its scalar pool
// and prelude, and the storage binding its loads and stores index. It is
// a program only; package native executes it.
type Kernel struct {
	// Binding is the storage the program was compiled against.
	Binding runtime.Binding

	// prog is the flat row program: temporary assignments, then each
	// equation's expression followed by its store, in source order.
	prog []Instr
	// prelude derives bind-time scalars (hoisted invariants, reciprocals).
	prelude []scalarInstr
	// pool is the scalar-pool template: constants are pre-filled; symbol
	// and derived entries are populated by BindSyms.
	pool []float64
	// symSlots maps SymNames[i] to its pool slot.
	symSlots []int32
	// SymNames lists the scalar symbols bound at execution time.
	SymNames []string
	// Radius is the stencil radius per dimension (halo requirement).
	Radius []int

	numRegs int
	flops   int
}

// BindSyms builds the execution-time scalar pool from a name->value map:
// symbol slots are filled, then the prelude derives the hoisted scalars.
// It errors on missing entries, like the interpreter's BindSyms.
func (k *Kernel) BindSyms(vals map[string]float64) ([]float64, error) {
	pool := append([]float64(nil), k.pool...)
	for i, n := range k.SymNames {
		v, ok := vals[n]
		if !ok {
			return nil, fmt.Errorf("bytecode: unbound scalar symbol %q", n)
		}
		pool[k.symSlots[i]] = v
	}
	for i := range k.prelude {
		in := &k.prelude[i]
		switch in.op {
		case sAdd:
			pool[in.dst] = pool[in.a] + pool[in.b]
		case sMul:
			pool[in.dst] = pool[in.a] * pool[in.b]
		case sPow:
			pool[in.dst] = ipow(pool[in.a], int(in.b))
		}
	}
	return pool, nil
}

// FlopsPerPoint reports the per-point flop cost of the compiled kernel,
// counted identically to the interpreter engine.
func (k *Kernel) FlopsPerPoint() int { return k.flops }

// StencilRadius returns the per-dimension stencil radius.
func (k *Kernel) StencilRadius() []int { return k.Radius }

// NumRegisters reports the size of the row-register file.
func (k *Kernel) NumRegisters() int { return k.numRegs }

// ipow mirrors the interpreter's integer power helper exactly: repeated
// multiplication starting from 1, with a final reciprocal for negative
// exponents. Keeping the operation order identical keeps results
// bit-exact across engines.
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
