package propagators

import (
	"testing"
	"time"

	"devigo/internal/core"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/perfmodel"
)

// runAutotuned runs a serial acoustic scenario with the given autotune
// policy (or a forced fixed configuration when policy is "") and returns
// the final norm, receiver traces and the effective configuration.
func runAutotuned(t *testing.T, policy string, workers, tileRows, nt int) (float64, [][]float64, core.EffectiveConfig) {
	t.Helper()
	m, err := Acoustic(serialCfg([]int{48, 48}, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, nil, RunConfig{
		NT: nt, NReceivers: 4,
		Workers: workers, TileRows: tileRows,
		Autotune: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Norm, res.Receivers, res.Op.Config()
}

// TestAutotuneInvariance is the bit-exactness guarantee the in-place
// tuner rests on: whatever configuration the autotuner settles on, the
// numerical results are identical to a fixed-configuration run.
func TestAutotuneInvariance(t *testing.T) {
	const nt = 24
	refNorm, refTraces, _ := runAutotuned(t, "", 1, 8, nt)
	for _, policy := range []string{core.AutotuneModel, core.AutotuneSearch} {
		norm, traces, cfg := runAutotuned(t, policy, 0, 0, nt)
		if cfg.Autotune != policy {
			t.Errorf("%s: effective config reports policy %q", policy, cfg.Autotune)
		}
		if norm != refNorm {
			t.Errorf("%s: norm %v != fixed-config norm %v (chose %s/w%d/t%d)",
				policy, norm, refNorm, cfg.Mode, cfg.Workers, cfg.TileRows)
		}
		for ti := range refTraces {
			for r := range refTraces[ti] {
				if traces[ti][r] != refTraces[ti][r] {
					t.Fatalf("%s: trace[%d][%d] differs: %v != %v",
						policy, ti, r, traces[ti][r], refTraces[ti][r])
				}
			}
		}
	}
}

// TestAutotuneRespectsForcedKnobs pins Workers/TileRows through Options
// and checks the tuner leaves them alone.
func TestAutotuneRespectsForcedKnobs(t *testing.T) {
	_, _, cfg := runAutotuned(t, core.AutotuneSearch, 1, 7, 16)
	if cfg.Workers != 1 || cfg.TileRows != 7 {
		t.Errorf("forced workers=1 tile=7 overridden: got w%d/t%d", cfg.Workers, cfg.TileRows)
	}
}

// TestAutotuneEnvVar drives the policy through DEVIGO_AUTOTUNE — the
// zero-user-code-changes path.
func TestAutotuneEnvVar(t *testing.T) {
	t.Setenv(core.AutotuneEnvVar, "model")
	_, _, cfg := runAutotuned(t, "", 0, 0, 8)
	if cfg.Autotune != core.AutotuneModel {
		t.Errorf("DEVIGO_AUTOTUNE=model not picked up: policy %q", cfg.Autotune)
	}
	t.Setenv(core.AutotuneEnvVar, "bogus")
	m, err := Acoustic(serialCfg([]int{32, 32}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, nil, RunConfig{NT: 2}); err == nil {
		t.Error("bogus DEVIGO_AUTOTUNE value must error")
	}
}

// dmpMeasure runs a 4-rank acoustic scenario under one halo mode with
// autotune off and returns the slowest rank's kernel+halo seconds and the
// rank-0 norm.
func dmpMeasure(t *testing.T, shape []int, mode halo.Mode, so, nt int) (float64, float64) {
	t.Helper()
	w := mpi.NewWorld(4)
	var seconds, norm float64
	err := w.Run(func(c *mpi.Comm) {
		g := grid.MustNew(shape, nil)
		dec, err := grid.NewDecomposition(g, c.Size(), []int{2, 2})
		if err != nil {
			t.Error(err)
			return
		}
		cart, err := mpi.CartCreate(c, dec.Topology, nil)
		if err != nil {
			t.Error(err)
			return
		}
		cfg := serialCfg(shape, so)
		cfg.Decomp = dec
		cfg.Rank = c.Rank()
		m, err := Build("acoustic", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		ctx := &core.Context{Comm: c, Cart: cart, Decomp: dec, Mode: mode}
		start := time.Now()
		res, err := Run(m, ctx, RunConfig{NT: nt, NReceivers: 4})
		if err != nil {
			t.Error(err)
			return
		}
		el := time.Since(start).Seconds()
		el = c.AllreduceScalar(el, mpi.OpMax)
		if c.Rank() == 0 {
			seconds = el
			norm = res.Norm
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return seconds, norm
}

// TestModelOrderingMatchesMeasured checks the satellite requirement: the
// cost model's preferred halo mode must be competitive with the measured
// best on the reduced CI grids. Timing on shared runners is noisy, so the
// assertion is robust: the model's top mode must either *be* the measured
// winner or measure within 35% of it (best-of-5 per mode, interleaved).
func TestModelOrderingMatchesMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped under -short")
	}
	shape := []int{96, 96}
	const so, nt = 4, 12

	// The model's ranking, from the profile of the real compiled operator.
	var prof perfmodel.OpProfile
	w := mpi.NewWorld(4)
	err := w.Run(func(c *mpi.Comm) {
		g := grid.MustNew(shape, nil)
		dec, _ := grid.NewDecomposition(g, c.Size(), []int{2, 2})
		cart, _ := mpi.CartCreate(c, dec.Topology, nil)
		cfg := serialCfg(shape, so)
		cfg.Decomp = dec
		cfg.Rank = c.Rank()
		m, err := Build("acoustic", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		ctx := &core.Context{Comm: c, Cart: cart, Decomp: dec, Mode: halo.ModeDiagonal}
		op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, ctx, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			prof = op.Profile()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	host := perfmodel.DefaultHost()
	modes := []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull}
	modelBest := modes[0]
	bestPred := 0.0
	for i, m := range modes {
		pred := host.Predict(prof, perfmodel.ExecConfig{Mode: m, Workers: 1, TileRows: 8})
		if i == 0 || pred < bestPred {
			modelBest, bestPred = m, pred
		}
	}

	// The measured ranking (best of 5 per mode), plus the bit-exactness
	// of results across modes. The rounds interleave the modes (basic,
	// diag, full, basic, ...) so host drift over the test's run lands on
	// every mode alike instead of on whichever block it overlaps.
	measured := map[halo.Mode]float64{}
	var refNorm float64
	for round := 0; round < 5; round++ {
		for i, m := range modes {
			s, norm := dmpMeasure(t, shape, m, so, nt)
			if best, ok := measured[m]; !ok || s < best {
				measured[m] = s
			}
			if round == 0 && i == 0 {
				refNorm = norm
			} else if norm != refNorm {
				t.Fatalf("mode %v norm %v != reference %v (modes must be bit-exact)", m, norm, refNorm)
			}
		}
	}
	measuredBest := modes[0]
	for _, m := range modes[1:] {
		if measured[m] < measured[measuredBest] {
			measuredBest = m
		}
	}
	if modelBest != measuredBest && measured[modelBest] > 1.35*measured[measuredBest] {
		t.Errorf("model prefers %v (measured %.4fs) but %v measured best (%.4fs): ordering off by >35%%",
			modelBest, measured[modelBest], measuredBest, measured[measuredBest])
	}
	t.Logf("model best: %v; measured: basic=%.4fs diag=%.4fs full=%.4fs",
		modelBest, measured[halo.ModeBasic], measured[halo.ModeDiagonal], measured[halo.ModeFull])
}

// TestAutotuneDMPBitExactAndConsistent runs a 4-rank world with the
// search policy (which may retarget the halo mode mid-run on every rank)
// and checks the result is bit-identical to a fixed-mode run and that all
// ranks agree on the chosen configuration.
func TestAutotuneDMPBitExactAndConsistent(t *testing.T) {
	shape := []int{48, 48}
	const so, nt = 4, 20
	_, refNorm := dmpMeasure(t, shape, halo.ModeDiagonal, so, nt)

	w := mpi.NewWorld(4)
	cfgs := make([]core.EffectiveConfig, 4)
	var norm float64
	err := w.Run(func(c *mpi.Comm) {
		g := grid.MustNew(shape, nil)
		dec, err := grid.NewDecomposition(g, c.Size(), []int{2, 2})
		if err != nil {
			t.Error(err)
			return
		}
		cart, err := mpi.CartCreate(c, dec.Topology, nil)
		if err != nil {
			t.Error(err)
			return
		}
		cfg := serialCfg(shape, so)
		cfg.Decomp = dec
		cfg.Rank = c.Rank()
		m, err := Build("acoustic", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		ctx := &core.Context{Comm: c, Cart: cart, Decomp: dec, Mode: halo.ModeBasic}
		res, err := Run(m, ctx, RunConfig{NT: nt, NReceivers: 4, Autotune: core.AutotuneSearch})
		if err != nil {
			t.Error(err)
			return
		}
		cfgs[c.Rank()] = res.Op.Config()
		if c.Rank() == 0 {
			norm = res.Norm
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if cfgs[r] != cfgs[0] {
			t.Fatalf("rank %d chose %+v, rank 0 chose %+v", r, cfgs[r], cfgs[0])
		}
	}
	if norm != refNorm {
		t.Errorf("autotuned DMP norm %v != fixed-mode norm %v (chose %+v)", norm, refNorm, cfgs[0])
	}
}
