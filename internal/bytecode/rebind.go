package bytecode

import (
	"fmt"

	"devigo/internal/field"
	"devigo/internal/runtime"
)

// Rebind returns a copy of the kernel executing against different storage:
// every referenced field is re-resolved by name from fields, while the
// compiled program, slots, scalar pool and prelude are shared with the
// receiver (they are immutable after compilation, and Run resolves strides
// and buffer pointers from the bound fields on every call, so the copy is
// safe to run concurrently with the original). This is how the operator
// cache reuses one compilation across shots: each shot's operator rebinds
// the cached kernel to its own fields instead of recompiling.
//
// The replacement fields must cover every name the kernel references and
// agree on the local domain shape, mirroring the compile-time validation.
func (k *Kernel) Rebind(fields map[string]*field.Function) (*Kernel, error) {
	nk := *k
	nk.Fields = make([]*field.Function, len(k.Fields))
	for i, name := range k.names {
		f, ok := fields[name]
		if !ok {
			return nil, fmt.Errorf("bytecode: Rebind: no storage registered for field %q", name)
		}
		nk.Fields[i] = f
	}
	for i := 1; i < len(nk.Fields); i++ {
		for d := range nk.Fields[0].LocalShape {
			if nk.Fields[i].LocalShape[d] != nk.Fields[0].LocalShape[d] {
				return nil, fmt.Errorf("bytecode: Rebind: fields %s and %s disagree on local shape",
					k.names[0], k.names[i])
			}
		}
	}
	// A private dispatch state keeps the copy concurrency-safe against the
	// original (the opcache runs rebound kernels across shots in parallel).
	nk.sched = runtime.NewSched[bcScratch](&nk, nk.Fields, nk.slots, nk.outs)
	return &nk, nil
}
