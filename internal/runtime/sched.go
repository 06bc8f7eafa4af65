package runtime

// MaxDims bounds the spatial dimensionality of compiled kernels (the
// compiler's dimension names are x, y, z).
const MaxDims = 3

// Slot is a resolved field access shared by every engine: which bound
// field (index into the kernel's field list), which time offset, and the
// per-dimension stencil offset. The flat buffer displacement is derived
// from the field's *current* strides at every Run, so reallocating ghost
// storage (deep halos for a larger exchange interval) never requires
// recompiling kernels.
type Slot struct {
	Field   int
	TimeOff int
	Off     [MaxDims]int
}

// Out records where one equation's row store lands.
type Out struct {
	Field   int
	TimeOff int
}

// Tables is the storage a row body reads and writes: the kernel's
// Binding plus the per-Run data slices and flat stencil displacements.
// The scheduler refills the per-Run half single-threaded before every
// dispatch (buffer rotation changes the t-dependent data pointers per
// step); workers only read it.
type Tables struct {
	Binding
	// SlotData[i] is the buffer slot i reads this Run and SlotOff[i] its
	// flat stencil displacement against the field's current strides.
	SlotData [][]float32
	SlotOff  []int
	// OutData[i] is the buffer equation i stores to this Run.
	OutData [][]float32
}

// refill resolves the per-(field,timeOff) data slices — and each slot's
// flat stencil displacement against the field's *current* strides — once
// per Run, so buffer rotation and ghost-storage reallocation between
// steps stay transparent without re-deriving any geometry.
func (tb *Tables) refill(t, nd int) {
	for i, s := range tb.Slots {
		f := tb.Fields[s.Field]
		tb.SlotData[i] = f.Buf(t + s.TimeOff).Data
		flat := 0
		for d := 0; d < nd; d++ {
			flat += s.Off[d] * f.Bufs[0].Strides[d]
		}
		tb.SlotOff[i] = flat
	}
	for i, o := range tb.Outs {
		tb.OutData[i] = tb.Fields[o.Field].Buf(t + o.TimeOff).Data
	}
}

// Body is an engine's half of the execution contract: everything except
// tiling, dispatch and row iteration, which the scheduler owns. S is the
// engine's per-worker scratch type.
type Body[S any] interface {
	// Prep readies one worker's scratch for a Run whose rows are at most
	// maxRow points long, with the Run's scalar vector syms. It runs
	// single-threaded before the dispatch, for every worker of the team.
	Prep(s *S, syms []float64, maxRow int)
	// Row executes every equation over one contiguous row of n points;
	// bases[f] is field f's buffer index of the row's first point. Rows
	// of one Run may execute concurrently on different workers' scratch.
	Row(s *S, bases []int, n int)
}

// worker is one worker's private sweep state: the odometer, the
// per-field row bases and the engine's scratch. Allocated once per worker
// and reused across tiles and timesteps.
type worker[S any] struct {
	idx   [MaxDims]int
	bases []int
	s     S
}

// Sched is the one tile scheduler every engine runs through: it resolves
// ExecOpts, splits the box's outer dimension into tiles, refills the
// storage tables, keeps the per-worker scratch table and hands the tiles
// to (*Pool).Run, whose inline loop is the serial path. Inside a tile it
// walks the rows in row-major order and calls the engine's Row body once
// per row. Tiles are disjoint row bands, so results are bit-identical for
// every worker count.
//
// A Sched belongs to one kernel copy and is allocated at compile or
// Rebind time, so the steady-state Run path performs no heap allocation
// and rebound copies stay safe to run concurrently with the original.
type Sched[S any] struct {
	Tables
	body Body[S]
	ws   []*worker[S]
	task task[S]
}

// NewSched builds the scheduler state of one kernel copy: body executes
// its rows against the storage of binding b.
func NewSched[S any](body Body[S], b Binding) *Sched[S] {
	return &Sched[S]{
		Tables: Tables{
			Binding:  b,
			SlotData: make([][]float32, len(b.Slots)),
			SlotOff:  make([]int, len(b.Slots)),
			OutData:  make([][]float32, len(b.Outs)),
		},
		body: body,
	}
}

// task adapts one Run invocation to the pool's Task contract. It lives
// inside the Sched so handing it to the pool converts a pointer to an
// interface without allocating.
type task[S any] struct {
	s        *Sched[S]
	b        Box
	tileRows int
}

// RunTile executes one row band with worker w's scratch.
func (tk *task[S]) RunTile(w, tile int) {
	lo, hi := tileBounds(tk.b, tile, tk.tileRows)
	tk.s.sweep(tk.s.ws[w], tk.b, lo, hi)
}

// Run executes the kernel at every point of the box for logical timestep
// t with the scalar vector syms: row-major point order, tiles of
// opts.TileRows outer rows dispatched through opts.Pool (inline on the
// caller when the pool is nil or has one worker), opts.Progress prodded
// by the caller between its tiles.
func (s *Sched[S]) Run(t int, b Box, syms []float64, opts *ExecOpts) {
	if b.Empty() {
		return
	}
	var o ExecOpts
	if opts != nil {
		o = *opts
	}
	tileRows := s.prepare(t, b, syms, o.TileRows, o.Pool.Workers())
	s.task = task[S]{s: s, b: b, tileRows: tileRows}
	o.Pool.Run(&s.task, tileCount(b, tileRows), t, o.Steal, o.Progress)
}

// RunDirect executes the box on the caller with worker 0's scratch in a
// plain loop over tileRows-row tiles, bypassing ExecOpts, the pool and
// the Task adapter. It is the serial baseline devigo-bench's hybrid
// experiment measures the scheduled dispatch against.
func (s *Sched[S]) RunDirect(t int, b Box, syms []float64, tileRows int) {
	if b.Empty() {
		return
	}
	tileRows = s.prepare(t, b, syms, tileRows, 1)
	for tile := 0; tile < tileCount(b, tileRows); tile++ {
		lo, hi := tileBounds(b, tile, tileRows)
		s.sweep(s.ws[0], b, lo, hi)
	}
}

// prepare is the single-threaded dispatch prologue: it clamps the tile
// height (<= 0 or taller than the box means one tile), refills the
// storage tables, grows the scratch table to `workers` entries and lets
// the engine prep each one. It returns the clamped tile height.
func (s *Sched[S]) prepare(t int, b Box, syms []float64, tileRows, workers int) int {
	nd := len(b.Lo)
	if outer := b.Hi[0] - b.Lo[0]; tileRows <= 0 || tileRows > outer {
		tileRows = outer
	}
	// The longest row a tile can produce (in 1-D the tile itself is the
	// row) sizes the engines' row registers.
	maxRow := b.Hi[nd-1] - b.Lo[nd-1]
	if nd == 1 {
		maxRow = tileRows
	}
	s.refill(t, nd)
	for len(s.ws) < workers {
		s.ws = append(s.ws, &worker[S]{bases: make([]int, len(s.Fields))})
	}
	for _, wk := range s.ws[:workers] {
		s.body.Prep(&wk.s, syms, maxRow)
	}
	return tileRows
}

// sweep executes rows [lo,hi) of the box's outer dimension with worker
// scratch wk: an odometer over dims 0..nd-2, the innermost dimension as
// the contiguous row handed to the engine's Row body.
func (s *Sched[S]) sweep(wk *worker[S], b Box, lo, hi int) {
	nd := len(b.Lo)
	idx := wk.idx[:nd]
	copy(idx, b.Lo)
	idx[0] = lo
	bases := wk.bases
	rowLen := b.Hi[nd-1] - b.Lo[nd-1]
	if nd == 1 {
		// Dim 0 is both the tiled and the contiguous dimension.
		rowLen = hi - lo
	}
	for {
		// Row start base per field (domain-relative -> buffer index).
		for fi, f := range s.Fields {
			base := 0
			for d := 0; d < nd; d++ {
				base += (idx[d] + f.Halo[d]) * f.Bufs[0].Strides[d]
			}
			bases[fi] = base
		}
		s.body.Row(&wk.s, bases, rowLen)
		// Advance the odometer over dims nd-2 .. 1; dim 0 is bounded by
		// the tile. A 1-D box is a single row.
		d := nd - 2
		for ; d > 0; d-- {
			if idx[d]++; idx[d] < b.Hi[d] {
				break
			}
			idx[d] = b.Lo[d]
		}
		if d < 0 {
			return
		}
		if d == 0 {
			if idx[0]++; idx[0] >= hi {
				return
			}
		}
	}
}

// tileBounds maps a tile index to its half-open outer-dimension row band.
// The decomposition — and therefore the pool's static block-cyclic
// ownership — is identical across engines.
func tileBounds(b Box, tile, tileRows int) (lo, hi int) {
	lo = b.Lo[0] + tile*tileRows
	hi = lo + tileRows
	if hi > b.Hi[0] {
		hi = b.Hi[0]
	}
	return lo, hi
}

// tileCount is the number of tileRows-row bands covering the box's outer
// dimension.
func tileCount(b Box, tileRows int) int {
	return (b.Hi[0] - b.Lo[0] + tileRows - 1) / tileRows
}
