package statespace

import "fmt"

// Arena is a bump allocator for state-vector storage. Device state for
// a whole fleet (or a whole shard) is packed into a few large float64
// slabs instead of one small heap allocation per device per tick,
// which is the core of the memory-compact fleet representation: flat
// slabs are cache-friendly for epoch sweeps and invisible to the GC
// scanner (no interior pointers).
//
// An Arena is NOT safe for concurrent Alloc; allocate during fleet
// construction (or give each shard its own arena). The float slices it
// hands out are stable for the lifetime of the arena and may be
// written freely by their owner.
type Arena struct {
	slab  []float64
	used  int
	total int
}

// NewArena returns an arena that pre-allocates capacity for hint
// float64s. The arena grows by additional slabs when exhausted, so
// hint is a performance tuning knob, not a limit.
func NewArena(hint int) *Arena {
	if hint < 64 {
		hint = 64
	}
	return &Arena{slab: make([]float64, hint)}
}

// Alloc returns a zeroed n-float slice carved from the arena. The
// slice has exact capacity n, so appends never bleed into a
// neighbouring allocation.
func (a *Arena) Alloc(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if a.used+n > len(a.slab) {
		grow := len(a.slab) * 2
		if grow < n {
			grow = n
		}
		a.total += a.used
		a.slab = make([]float64, grow)
		a.used = 0
	}
	out := a.slab[a.used : a.used+n : a.used+n]
	a.used += n
	return out
}

// Floats reports the total float64s handed out so far.
func (a *Arena) Floats() int { return a.total + a.used }

// Vector is a mutable, flat state vector: a schema plus a slice of
// values, typically carved from an Arena. It is the copy-on-write
// backing behind the immutable State API — State values returned by
// Vector.State are views of the vector's storage, valid until the next
// mutation of the vector.
type Vector struct {
	schema *Schema
	vals   []float64
}

// NewVector allocates a vector for the schema. If a is non-nil the
// storage comes from the arena; otherwise it is heap-allocated.
func NewVector(s *Schema, a *Arena) Vector {
	var vals []float64
	if a != nil {
		vals = a.Alloc(s.Len())
	} else {
		vals = make([]float64, s.Len())
	}
	return Vector{schema: s, vals: vals}
}

// State returns the vector's current value as a State view. The view
// aliases the vector's storage: it is immutable through the State API
// but changes value when the vector is next mutated. Callers that need
// a durable snapshot must copy (State.Values or Trajectory.Append both
// copy).
func (v Vector) State() State { return State{schema: v.schema, values: v.vals} }

// Set assigns the named variable, clamped into its range, in place.
func (v Vector) Set(name string, x float64) error {
	i, ok := v.schema.Index(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVariable, name)
	}
	v.vals[i] = clamp(x, v.schema.vars[i].Min, v.schema.vars[i].Max)
	return nil
}

// AddDeltaFrom sets the vector to src + d with per-variable clamping —
// the in-place form of State.Apply. src may be the vector's own State
// view.
func (v Vector) AddDeltaFrom(src State, d Delta) error {
	if src.schema != v.schema {
		return fmt.Errorf("statespace: vector/state schema mismatch")
	}
	// Validate before mutating so a bad delta leaves the vector
	// untouched, matching State.Apply's no-partial-write semantics.
	for name := range d {
		if _, ok := v.schema.Index(name); !ok {
			return fmt.Errorf("%w: %q", ErrUnknownVariable, name)
		}
	}
	if &src.values[0] != &v.vals[0] {
		copy(v.vals, src.values)
	}
	for name, dv := range d {
		i, _ := v.schema.Index(name)
		v.vals[i] = clamp(v.vals[i]+dv, v.schema.vars[i].Min, v.schema.vars[i].Max)
	}
	return nil
}

// Scratch is the per-device double buffer for the MAPE hot loop: a
// "current" vector holding the device's live state and a "next" vector
// for predicted states handed to guards. Using a Scratch, a full
// sense→plan→guard→execute tick performs zero state allocations while
// keeping the exact clamping and error semantics of State.With and
// State.Apply (the pinned-journal tests in the device package hold the
// journals those semantics produce).
//
// A Scratch must only be mutated while its owner holds whatever lock
// serialises the device's MAPE pass, because the State views it
// returns alias its buffers.
type Scratch struct {
	cur  Vector
	next Vector
}

// NewScratch allocates a scratch pair for the initial state's schema,
// from the arena when a is non-nil, and copies the initial state into
// the current buffer.
func NewScratch(initial State, a *Arena) Scratch {
	sc := Scratch{cur: NewVector(initial.schema, a), next: NewVector(initial.schema, a)}
	copy(sc.cur.vals, initial.values)
	return sc
}

// Cur returns the current-buffer view.
func (sc *Scratch) Cur() State { return sc.cur.State() }

// Set assigns one variable of the current state in place — the
// scratch-backed equivalent of State.With.
func (sc *Scratch) Set(name string, x float64) error { return sc.cur.Set(name, x) }

// Peek computes cur + d into the next buffer and returns its view —
// the scratch-backed equivalent of State.Apply for guard prediction.
// The view is valid until the next Peek.
func (sc *Scratch) Peek(d Delta) (State, error) {
	if err := sc.next.AddDeltaFrom(sc.cur.State(), d); err != nil {
		return State{}, err
	}
	return sc.next.State(), nil
}

// Commit applies d to the current buffer in place and returns the
// updated view — the scratch-backed equivalent of State.Apply on the
// committed transition.
func (sc *Scratch) Commit(d Delta) (State, error) {
	if err := sc.cur.AddDeltaFrom(sc.cur.State(), d); err != nil {
		return State{}, err
	}
	return sc.cur.State(), nil
}
