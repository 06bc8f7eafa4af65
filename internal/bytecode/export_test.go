package bytecode

// SymSlot exposes the pool slot of the kernel's i-th scalar symbol to the
// external tests.
func SymSlot(k *Kernel, i int) int32 { return k.symSlots[i] }
