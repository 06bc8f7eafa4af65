package runtime

import (
	"fmt"

	"devigo/internal/field"
)

// Rebind returns a copy of the kernel executing against different storage:
// every referenced field is re-resolved by name from fields, while the
// compiled per-point programs, slots and symbol table are shared with the
// receiver (they are immutable after compilation, and Run resolves strides
// and buffer pointers from the bound fields on every call, so the copy is
// safe to run concurrently with the original). This is the interpreter
// engine's half of the operator cache's reuse path — see the bytecode
// package's Rebind for the service-level rationale.
//
// The replacement fields must cover every name the kernel references and
// agree on the local domain shape, mirroring the compile-time validation.
func (k *Kernel) Rebind(fields map[string]*field.Function) (*Kernel, error) {
	nk := *k
	nk.Fields = make([]*field.Function, len(k.Fields))
	for i, name := range k.names {
		f, ok := fields[name]
		if !ok {
			return nil, fmt.Errorf("runtime: Rebind: no storage registered for field %q", name)
		}
		nk.Fields[i] = f
	}
	for i := 1; i < len(nk.Fields); i++ {
		for d := range nk.Fields[0].LocalShape {
			if nk.Fields[i].LocalShape[d] != nk.Fields[0].LocalShape[d] {
				return nil, fmt.Errorf("runtime: Rebind: fields %s and %s disagree on local shape",
					k.names[0], k.names[i])
			}
		}
	}
	// A private dispatch state keeps the copy concurrency-safe against the
	// original (the opcache runs rebound kernels across shots in parallel).
	nk.sched = NewSched[irScratch](&nk, nk.Fields, nk.slots, nk.outs)
	return &nk, nil
}
