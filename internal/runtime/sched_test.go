package runtime

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
)

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() uint64 {
	var buf [64]byte
	n := goruntime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	id, _ := strconv.ParseUint(string(fields[1]), 10, 64)
	return id
}

// recScratch is the recording body's per-worker scratch.
type recScratch struct {
	maxRow int
}

// recBody is a Row body that records every point it is handed, decoding
// the point from field 0's row base and cross-checking every other
// field's base against it.
type recBody struct {
	fields []*field.Function
	box    Box
	visits []atomic.Int32
	mu     sync.Mutex
	errs   []string
}

func (rb *recBody) fail(format string, args ...any) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if len(rb.errs) < 8 {
		rb.errs = append(rb.errs, fmt.Sprintf(format, args...))
	}
}

func (rb *recBody) Prep(s *recScratch, _ []float64, maxRow int) { s.maxRow = maxRow }

func (rb *recBody) Row(s *recScratch, bases []int, n int) {
	if n <= 0 || n > s.maxRow {
		rb.fail("row of %d points, want 1..%d (maxRow)", n, s.maxRow)
		return
	}
	f0 := rb.fields[0]
	full := f0.FullShape()
	nd := len(full)
	pt := make([]int, nd)
	for d := 0; d < nd; d++ {
		c := bases[0] / f0.Bufs[0].Strides[d]
		if d > 0 {
			c %= full[d]
		}
		pt[d] = c - f0.Halo[d]
	}
	for fi, f := range rb.fields[1:] {
		want := 0
		for d := 0; d < nd; d++ {
			want += (pt[d] + f.Halo[d]) * f.Bufs[0].Strides[d]
		}
		if bases[fi+1] != want {
			rb.fail("row %v: field %d base %d, want %d", pt, fi+1, bases[fi+1], want)
		}
	}
	for x := 0; x < n; x++ {
		lin := 0
		for d := 0; d < nd; d++ {
			c := pt[d]
			if d == nd-1 {
				c += x
			}
			if c < rb.box.Lo[d] || c >= rb.box.Hi[d] {
				rb.fail("point %v (+%d) outside box %v..%v", pt, x, rb.box.Lo, rb.box.Hi)
				return
			}
			lin = lin*(rb.box.Hi[d]-rb.box.Lo[d]) + c - rb.box.Lo[d]
		}
		rb.visits[lin].Add(1)
	}
}

// TestSchedVisitsEveryPointOnce drives the shared scheduler with a
// recording row body over 1-, 2- and 3-D boxes with nonzero Lo — interior
// boxes and time-tile shell boxes reaching into the ghost region — for
// every tile height class, team size and steal setting: each point must
// be visited exactly once with consistent per-field row bases, and the
// progress hook must run only on the calling goroutine.
func TestSchedVisitsEveryPointOnce(t *testing.T) {
	shapes := [][]int{{13}, {9, 7}, {6, 5, 4}}
	pools := []*Pool{nil, NewPool(1, 0), NewPool(2, 0), NewPool(3, 0)}
	for _, p := range pools {
		defer p.Close()
	}
	for _, shape := range shapes {
		nd := len(shape)
		g := grid.MustNew(shape, nil)
		f0, err := field.NewFunction("a", g, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		f1, err := field.NewFunction("b", g, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		fields := []*field.Function{f0, f1}
		inner := Box{Lo: make([]int, nd), Hi: make([]int, nd)}
		shell := Box{Lo: make([]int, nd), Hi: make([]int, nd)}
		for d := range shape {
			inner.Lo[d], inner.Hi[d] = 1, shape[d]-1
			shell.Lo[d], shell.Hi[d] = -1, shape[d]+1
		}
		for _, box := range []Box{inner, shell} {
			outer := box.Hi[0] - box.Lo[0]
			for _, tileRows := range []int{0, 1, 3, outer + 2} {
				for pi, p := range pools {
					for _, steal := range []bool{false, true} {
						name := fmt.Sprintf("%dD/lo%d/tile%d/pool%d/steal=%v", nd, box.Lo[0], tileRows, pi, steal)
						caller := goid()
						var calls, offCaller atomic.Int32
						progress := func() {
							calls.Add(1)
							if goid() != caller {
								offCaller.Add(1)
							}
						}
						checkSched(t, name, fields, box, func(s *Sched[recScratch]) {
							s.Run(0, box, nil, &ExecOpts{TileRows: tileRows, Pool: p, Steal: steal, Progress: progress})
						})
						if calls.Load() == 0 {
							t.Errorf("%s: progress never ran", name)
						}
						if n := offCaller.Load(); n != 0 {
							t.Errorf("%s: progress ran %d times off the calling goroutine", name, n)
						}
					}
				}
				name := fmt.Sprintf("%dD/lo%d/tile%d/direct", nd, box.Lo[0], tileRows)
				checkSched(t, name, fields, box, func(s *Sched[recScratch]) {
					s.RunDirect(0, box, nil, tileRows)
				})
			}
		}
	}
}

// checkSched runs one dispatch of a fresh recording scheduler and asserts
// exactly-once coverage of the box with consistent row bases.
func checkSched(t *testing.T, name string, fields []*field.Function, box Box, run func(*Sched[recScratch])) {
	t.Helper()
	rb := &recBody{fields: fields, box: box, visits: make([]atomic.Int32, box.Size())}
	run(NewSched[recScratch](rb, Binding{Fields: fields}))
	for _, e := range rb.errs {
		t.Errorf("%s: %s", name, e)
	}
	for i := range rb.visits {
		if got := rb.visits[i].Load(); got != 1 {
			t.Fatalf("%s: point %d visited %d times, want exactly once", name, i, got)
		}
	}
}
