package runtime

import (
	"fmt"

	"devigo/internal/field"
	"devigo/internal/symbolic"
)

// Binding is a compiled kernel's storage: the fields it reads and writes,
// resolved by name, and the load-slot and output tables that index them.
// Every engine's compiler builds one with a Binder and every engine's
// Sched executes against one. The tables are immutable after compilation,
// so bindings produced by Rebind share them with the original.
type Binding struct {
	Fields []*field.Function
	Slots  []Slot
	// Outs[i] is where equation i's store lands.
	Outs  []Out
	names []string
}

// Binder builds a Binding while a kernel compiles: fields are resolved by
// name on first reference and identical accesses share one load slot.
type Binder struct {
	Binding
	src      map[string]*field.Function
	fieldIdx map[string]int
	slotIdx  map[Slot]int
}

// NewBinder starts a binding that resolves field names from fields.
func NewBinder(fields map[string]*field.Function) *Binder {
	return &Binder{src: fields, fieldIdx: map[string]int{}, slotIdx: map[Slot]int{}}
}

// resolve returns the index of the named field, resolving it on first use.
func (b *Binder) resolve(name string) (int, error) {
	if i, ok := b.fieldIdx[name]; ok {
		return i, nil
	}
	f, err := lookup(b.src, name)
	if err != nil {
		return 0, err
	}
	i := len(b.Fields)
	b.fieldIdx[name] = i
	b.Fields = append(b.Fields, f)
	b.names = append(b.names, name)
	return i, nil
}

// Load returns the index of the slot reading access a, adding the slot on
// first use.
func (b *Binder) Load(a symbolic.Access) (int, error) {
	fi, err := b.resolve(a.Fun.Name)
	if err != nil {
		return 0, err
	}
	if len(a.Off) > MaxDims {
		return 0, fmt.Errorf("runtime: access %s exceeds %d dimensions", a, MaxDims)
	}
	s := Slot{Field: fi, TimeOff: a.TimeOff}
	copy(s.Off[:], a.Off)
	if i, ok := b.slotIdx[s]; ok {
		return i, nil
	}
	i := len(b.Slots)
	b.slotIdx[s] = i
	b.Slots = append(b.Slots, s)
	return i, nil
}

// Store appends the output of the next equation, whose left-hand side is
// lhs, and returns its index into Outs.
func (b *Binder) Store(lhs symbolic.Expr) (int, error) {
	a, ok := lhs.(symbolic.Access)
	if !ok {
		return 0, fmt.Errorf("runtime: equation LHS must be a function access, got %s", lhs)
	}
	fi, err := b.resolve(a.Fun.Name)
	if err != nil {
		return 0, err
	}
	b.Outs = append(b.Outs, Out{Field: fi, TimeOff: a.TimeOff})
	return len(b.Outs) - 1, nil
}

// Done validates the finished binding and returns it. All fields must
// share the local domain shape; differing halo widths are fine (strides
// are resolved at execution time).
func (b *Binder) Done() (Binding, error) {
	return b.Binding, b.checkShapes()
}

// Rebind returns a copy of the binding whose fields are re-resolved by
// name from fields, sharing the immutable slot and output tables. This is
// how the operator cache reuses one compilation across shots. The
// replacement fields must cover every referenced name and agree on the
// local domain shape, as at compile time.
func (b *Binding) Rebind(fields map[string]*field.Function) (Binding, error) {
	nb := *b
	nb.Fields = make([]*field.Function, len(b.names))
	for i, name := range b.names {
		f, err := lookup(fields, name)
		if err != nil {
			return Binding{}, err
		}
		nb.Fields[i] = f
	}
	return nb, nb.checkShapes()
}

func lookup(fields map[string]*field.Function, name string) (*field.Function, error) {
	f, ok := fields[name]
	if !ok {
		return nil, fmt.Errorf("runtime: no storage registered for field %q", name)
	}
	return f, nil
}

func (b *Binding) checkShapes() error {
	for i := 1; i < len(b.Fields); i++ {
		for d := range b.Fields[0].LocalShape {
			if b.Fields[i].LocalShape[d] != b.Fields[0].LocalShape[d] {
				return fmt.Errorf("runtime: fields %s and %s disagree on local shape",
					b.names[0], b.names[i])
			}
		}
	}
	return nil
}
