package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// rebindFields builds fresh, identically initialised storage for the
// rebind nest: a time function u and a parameter field vel.
func rebindFields(t *testing.T, shape []int) map[string]*field.Function {
	t.Helper()
	g := grid.MustNew(shape, nil)
	u, err := field.NewTimeFunction("u", g, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	vel, err := field.NewFunction("vel", g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range u.Bufs[0].Data {
		u.Bufs[0].Data[i] = float32((i*13)%29) * 0.125
	}
	for i := range vel.Bufs[0].Data {
		vel.Bufs[0].Data[i] = 1.5 + float32(i%7)*0.25
	}
	return map[string]*field.Function{"u": &u.Function, "vel": vel}
}

// rebindEqs is u[t+1] = u + dt*vel*(u[x-1] + u[x+1]) over the named
// fields of any rebindFields map (kernels resolve storage by name).
func rebindEqs(fields map[string]*field.Function) []symbolic.Eq {
	u, vel := fields["u"].Ref, fields["vel"].Ref
	rhs := symbolic.NewAdd(symbolic.At(u), symbolic.NewMul(symbolic.S("dt"), symbolic.At(vel),
		symbolic.NewAdd(symbolic.Shifted(u, 0, -1, 0), symbolic.Shifted(u, 0, 1, 0))))
	return []symbolic.Eq{{LHS: symbolic.ForwardStencil(u), RHS: rhs}}
}

// TestKernelRebind covers the operator cache's reuse path on every
// engine: a kernel rebound to fresh storage computes bit-identically to a
// fresh compile on that storage while the original runs concurrently on
// its own (run under -race in CI), and storage that lacks a field or
// disagrees on the local shape is refused with an error naming the field.
func TestKernelRebind(t *testing.T) {
	shape := []int{19, 13}
	radius := []int{1, 1}
	const steps = 4
	run := func(k runtime.ExecKernel, f map[string]*field.Function, pool *runtime.Pool) {
		syms, err := k.BindSyms(map[string]float64{"dt": 0.1})
		if err != nil {
			t.Error(err)
			return
		}
		box := runtime.Box{Lo: []int{0, 0}, Hi: append([]int(nil), f["u"].LocalShape...)}
		for step := 0; step < steps; step++ {
			k.Run(step, box, syms, &runtime.ExecOpts{TileRows: 3, Pool: pool})
		}
	}
	for _, engine := range EngineNames() {
		t.Run(engine, func(t *testing.T) {
			orig, fresh, ref := rebindFields(t, shape), rebindFields(t, shape), rebindFields(t, shape)
			k, err := compileStep(engine, nil, rebindEqs(orig), radius, orig)
			if err != nil {
				t.Fatal(err)
			}
			rk, err := k.Rebind(fresh)
			if err != nil {
				t.Fatal(err)
			}
			kRef, err := compileStep(engine, nil, rebindEqs(ref), radius, ref)
			if err != nil {
				t.Fatal(err)
			}
			run(kRef, ref, nil)

			var wg sync.WaitGroup
			for _, c := range []struct {
				k runtime.ExecKernel
				f map[string]*field.Function
			}{{k, orig}, {rk, fresh}} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					pool := runtime.NewPool(2, 0)
					defer pool.Close()
					run(c.k, c.f, pool)
				}()
			}
			wg.Wait()
			for name, f := range map[string]map[string]*field.Function{"original": orig, "rebound": fresh} {
				for bi, buf := range f["u"].Bufs {
					want := ref["u"].Bufs[bi].Data
					for i, v := range buf.Data {
						if math.Float32bits(v) != math.Float32bits(want[i]) {
							t.Fatalf("%s kernel: u buf %d lane %d = %v, fresh compile %v", name, bi, i, v, want[i])
						}
					}
				}
			}

			if _, err := k.Rebind(map[string]*field.Function{"u": fresh["u"]}); err == nil ||
				!strings.Contains(err.Error(), `"vel"`) {
				t.Errorf("Rebind without vel: want an error naming the field, got %v", err)
			}
			wide := rebindFields(t, []int{shape[0] + 1, shape[1]})
			if _, err := k.Rebind(map[string]*field.Function{"u": fresh["u"], "vel": wide["vel"]}); err == nil ||
				!strings.Contains(err.Error(), "vel") || !strings.Contains(err.Error(), "local shape") {
				t.Errorf("Rebind with a mismatched vel: want a local-shape error naming the field, got %v", err)
			}
		})
	}
}
