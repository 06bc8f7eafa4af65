package native

import (
	"testing"

	"devigo/internal/bytecode"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/ir"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// TestKernelPoolRunAllocFree certifies both program forms' (single VM
// segment and fused chains) whole dispatch path — table refill, scratch prep, the shared scheduler,
// pool Run — allocation-free once warmed, serially and on a 4-worker
// team.
func TestKernelPoolRunAllocFree(t *testing.T) {
	g := grid.MustNew([]int{64, 32}, []float64{63, 31})
	u, _ := confTimeFn(t, "u", g, 4)
	eq := symbolic.Eq{LHS: symbolic.Dt(symbolic.At(u.Ref), 1), RHS: symbolic.Laplace(symbolic.At(u.Ref), 2, 4)}
	sol, err := symbolic.Solve(eq, symbolic.ForwardStencil(u.Ref))
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := ir.Lower([]symbolic.Eq{{LHS: symbolic.ForwardStencil(u.Ref), RHS: sol}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]*field.Function{"u": &u.Function}
	bk, err := bytecode.CompileCluster(clusters[0], fields)
	if err != nil {
		t.Fatal(err)
	}
	syms, err := bk.BindSyms(map[string]float64{"dt": 0.1, "h_x": 1, "h_y": 1})
	if err != nil {
		t.Fatal(err)
	}
	team := runtime.NewPool(4, 0)
	defer team.Close()
	kernels := []struct {
		name string
		run  func(t int, b runtime.Box, pool []float64, opts *runtime.ExecOpts)
	}{
		{"bytecode", WrapVM(bk).Run},
		{"native", Wrap(bk).Run},
	}
	b := confBox(&u.Function)
	for _, k := range kernels {
		for _, opts := range []*runtime.ExecOpts{{TileRows: 8}, {TileRows: 8, Pool: team}} {
			k.run(0, b, syms, opts) // warm: grows scratch, fills tables
			step := 1
			if avg := testing.AllocsPerRun(20, func() {
				k.run(step%2, b, syms, opts)
				step++
			}); avg != 0 {
				t.Errorf("%s (pool=%v): Run allocates %.1f objects/run, want 0",
					k.name, opts.Pool != nil, avg)
			}
		}
	}
}
