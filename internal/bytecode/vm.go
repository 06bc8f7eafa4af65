package bytecode

import "devigo/internal/runtime"

// Sweep executes prog once over one row of n points: the row body of
// every VM segment the native executor runs, and so the bytecode engine's
// whole row. regs is the register file with row pitch stride
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
