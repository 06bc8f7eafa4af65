package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// tiny shrinks a workload to a size that runs in well under a second,
// keeping its model, ranks, workers, halo mode and time tile. Sixty steps
// carry the Ricker wavelet's peak to the receivers.
func tiny(w workload) workload {
	t := w
	t.shape = make([]int, len(w.shape))
	for d := range t.shape {
		t.shape[d] = 48
		if len(w.shape) == 3 {
			t.shape[d] = 24
		}
	}
	t.nbl, t.nt, t.nrec = 4, 60, 8
	if t.shots > 0 {
		t.shots = 2
	}
	return t
}

// declared reads BENCHMARK.json at the repository root.
func declared(t *testing.T) (workloads []string, e2e, layers []metric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metric{m.Name, m.Unit})
	}
	return workloads, e2e, layers
}

// TestSmokeEveryWorkload runs every workload at a tiny size in both
// modes and checks that each declared metric is printed with its unit,
// that the last line is the JSON summary, and that nothing failed.
func TestSmokeEveryWorkload(t *testing.T) {
	names, e2e, layers := declared(t)
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	if !reflect.DeepEqual(e2e, endToEnd) || !reflect.DeepEqual(layers, perLayer) {
		t.Fatalf("BENCHMARK.json metrics differ from the ones the benchmark reports")
	}
	host := hostInfo{LLCBytes: 1 << 20}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			tw := tiny(w)
			res, err := measure(tw, makeInputs(tw, 1), 0, traced, host, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d repetitions failed: %v", w.name, traced, res.failed, res.attempted, res.failures)
			}
			var out bytes.Buffer
			if err := res.print(&out, tw, 1); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var summary struct {
				Correct   *bool `json:"correct"`
				Attempted int   `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("%s: last line is not the JSON summary: %v", w.name, err)
			}
			want := e2e
			if traced {
				want = layers
			}
			if summary.Correct == nil || !*summary.Correct || summary.Failed == nil || summary.Attempted < 1 {
				t.Errorf("%s traced=%v: summary %+v", w.name, traced, summary)
			}
			if len(summary.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(summary.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := summary.Metrics[m.name]
				if !ok || got.Value == nil || got.Unit != m.unit || !finite(*got.Value) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", w.name, traced, m.name, got, m.unit)
				}
				if !strings.Contains(out.String(), m.name) {
					t.Errorf("%s traced=%v: %s not printed", w.name, traced, m.name)
				}
			}
		}
	}
}

// TestOracleCountsPerturbedReceiver shows that one receiver sample off
// by a relative 1e-6 fails the forward oracle, as does one wavefield
// point, and that one stacked-gradient point fails the survey oracle.
func TestOracleCountsPerturbedReceiver(t *testing.T) {
	w := tiny(workloads[2])
	in := makeInputs(w, 3)
	ref, err := newForwardRef(w, in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runForward(w, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.close()
	if bad := ref.check(w, rep); len(bad) != 0 {
		t.Fatalf("unperturbed run fails the oracle: %v", bad)
	}
	// Perturb the largest receiver sample by a relative 1e-6.
	rec := rep.ranks[0].receivers
	t0, r0 := 0, 0
	for t := range rec {
		for r, v := range rec[t] {
			if math.Abs(v) > math.Abs(rec[t0][r0]) {
				t0, r0 = t, r
			}
		}
	}
	orig := rec[t0][r0]
	rec[t0][r0] = orig * (1 + 1e-6)
	if bad := ref.check(w, rep); len(bad) != 1 || !strings.Contains(bad[0], "receiver") {
		t.Errorf("perturbed receiver: oracle reports %v, want one receiver failure", bad)
	}
	rec[t0][r0] = orig
	u := rep.ranks[1].model.Fields[rep.ranks[1].model.WaveFields[0]]
	idx := make([]int, len(u.Halo))
	for d := range idx {
		idx[d] = u.Halo[d] + u.LocalShape[d]/2
	}
	buf := u.Buf(w.nt)
	buf.Data[buf.Index(idx)] += 1
	if bad := ref.check(w, rep); len(bad) != 1 || !strings.Contains(bad[0], "rank 1: 1 wavefield") {
		t.Errorf("perturbed wavefield point: oracle reports %v, want one wavefield failure", bad)
	}

	sw := tiny(workloads[3])
	sin := makeInputs(sw, 3)
	sref, err := newSurveyRef(sw, sin)
	if err != nil {
		t.Fatal(err)
	}
	srep, err := runSurvey(sw, sin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad := sref.check(srep); len(bad) != 0 {
		t.Fatalf("unperturbed survey fails the oracle: %v", bad)
	}
	srep.res.Gradient[len(srep.res.Gradient)/2] += 1e-3
	if bad := sref.check(srep); len(bad) != 1 || !strings.Contains(bad[0], "gradient") {
		t.Errorf("perturbed gradient: oracle reports %v, want one gradient failure", bad)
	}
}

// TestSeedDeterminesInputs: the same seed gives the same inputs and
// another seed does not, for every workload.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := makeInputs(w, 11), makeInputs(w, 11), makeInputs(w, 12)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 11 gave two different input sets", w.name)
		}
		c.Seed = a.Seed
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 11 and 12 gave the same inputs", w.name)
		}
		if len(a.Receivers) != w.nrec || (w.shots > 0) != (len(a.Shots) == w.shots && a.Source == nil) {
			t.Errorf("%s: inputs %d receivers, %d shots, source %v", w.name, len(a.Receivers), len(a.Shots), a.Source)
		}
	}
}
