package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Pos is a grid coordinate.
type Pos struct {
	X, Y int
}

// Dist returns the Chebyshev distance between two positions (grid
// moves are 8-directional).
func (p Pos) Dist(q Pos) int {
	dx, dy := abs(p.X-q.X), abs(p.Y-q.Y)
	if dx > dy {
		return dx
	}
	return dy
}

// String renders the position.
func (p Pos) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Human is a person in the world. Humans random-walk each step unless
// Stationary.
type Human struct {
	ID         string
	Pos        Pos
	Stationary bool
	// Harmed marks the human as already harmed; harmed humans stop
	// moving and are not harmed again.
	Harmed bool
}

// HazardKind labels what kind of hazard occupies a cell.
type HazardKind string

// Well-known hazard kinds.
const (
	HazardHole HazardKind = "hole"
	HazardFire HazardKind = "fire"
	HazardMine HazardKind = "mine"
)

// Hazard is a dangerous cell created by a device action (e.g. a dug
// hole). A Marked hazard has warnings posted (the paper's obligation
// example), which lets humans avoid it.
type Hazard struct {
	ID       string
	Pos      Pos
	Kind     HazardKind
	Severity float64
	Marked   bool
}

// HarmEvent records one instance of harm to a human — the quantity
// every experiment ultimately measures.
type HarmEvent struct {
	Time     time.Time
	HumanID  string
	Cause    string
	Severity float64
	// Direct is true when a device action harmed the human
	// immediately, false for indirect harm (e.g. falling into an
	// unmarked hole later).
	Direct bool
}

// World is a bounded grid containing humans and hazards. All methods
// are safe for concurrent use. Movement and harm are deterministic
// given the injected random source.
//
// Entities live in dense slices, found through an ID-to-slot map per
// kind, rather than in per-entity maps: iteration (the per-step hot
// path) walks contiguous memory in a canonical sorted-by-ID order with
// no per-step allocation or sorting, and — unlike the previous map
// ranges — the order hazards are tested against a human, and the order
// strike victims are recorded, are deterministic by construction.
type World struct {
	mu    sync.Mutex
	w, h  int
	rng   *rand.Rand
	clock *Clock

	// humanIdx/hazardIdx map entity IDs to dense-slice positions.
	humans   []Human // dense, append-only
	humanIdx map[string]int32
	// humanOrder holds indices into humans sorted by human ID — the
	// canonical walk order for stepping, striking and listing.
	humanOrder []int32
	hazards    []Hazard // dense, kept sorted by hazard ID
	hazardIdx  map[string]int32

	harms []HarmEvent
	// markedAvoidProb is the probability a human avoids a marked
	// hazard they step onto.
	markedAvoidProb float64
}

// WorldOption configures a World.
type WorldOption interface {
	apply(*World)
}

type avoidProbOption float64

func (o avoidProbOption) apply(w *World) { w.markedAvoidProb = float64(o) }

// WithMarkedAvoidProbability sets the probability that a human notices
// and avoids a marked hazard (default 0.95).
func WithMarkedAvoidProbability(p float64) WorldOption {
	return avoidProbOption(math.Max(0, math.Min(1, p)))
}

// NewWorld builds a w×h grid world. The random source drives human
// movement; the clock stamps harm events.
func NewWorld(w, h int, rng *rand.Rand, clock *Clock, opts ...WorldOption) (*World, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("sim: world dimensions must be positive, got %dx%d", w, h)
	}
	if rng == nil {
		return nil, fmt.Errorf("sim: world requires a random source")
	}
	if clock == nil {
		return nil, fmt.Errorf("sim: world requires a clock")
	}
	world := &World{
		w: w, h: h,
		rng:             rng,
		clock:           clock,
		humanIdx:        make(map[string]int32),
		hazardIdx:       make(map[string]int32),
		markedAvoidProb: 0.95,
	}
	for _, o := range opts {
		o.apply(world)
	}
	return world, nil
}

// Size returns the world dimensions.
func (w *World) Size() (int, int) { return w.w, w.h }

// AddHuman places a human; positions are clamped into the grid.
func (w *World) AddHuman(id string, pos Pos, stationary bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if id == "" {
		return fmt.Errorf("sim: human needs an ID")
	}
	if _, dup := w.humanIdx[id]; dup {
		return fmt.Errorf("sim: duplicate human %q", id)
	}
	n := int32(len(w.humans))
	w.humans = append(w.humans, Human{ID: id, Pos: w.clampLocked(pos), Stationary: stationary})
	w.humanIdx[id] = n
	// Insert into the canonical order at the sorted position.
	at := sort.Search(len(w.humanOrder), func(i int) bool {
		return w.humans[w.humanOrder[i]].ID >= id
	})
	w.humanOrder = append(w.humanOrder, 0)
	copy(w.humanOrder[at+1:], w.humanOrder[at:])
	w.humanOrder[at] = n
	return nil
}

// AddHazard places a hazard; positions are clamped into the grid.
func (w *World) AddHazard(id string, pos Pos, kind HazardKind, severity float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if id == "" {
		return fmt.Errorf("sim: hazard needs an ID")
	}
	if _, dup := w.hazardIdx[id]; dup {
		return fmt.Errorf("sim: duplicate hazard %q", id)
	}
	at := sort.Search(len(w.hazards), func(i int) bool { return w.hazards[i].ID >= id })
	w.hazards = append(w.hazards, Hazard{})
	copy(w.hazards[at+1:], w.hazards[at:])
	w.hazards[at] = Hazard{ID: id, Pos: w.clampLocked(pos), Kind: kind, Severity: severity}
	w.hazardIdx[id] = int32(at)
	for i := at + 1; i < len(w.hazards); i++ {
		w.hazardIdx[w.hazards[i].ID] = int32(i)
	}
	return nil
}

// MarkHazard posts warnings at a hazard (discharging an obligation).
// It reports whether the hazard exists.
func (w *World) MarkHazard(id string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	i, ok := w.hazardIdx[id]
	if ok {
		w.hazards[i].Marked = true
	}
	return ok
}

// RemoveHazard deletes a hazard (e.g. a backfilled hole) and reports
// whether it existed.
func (w *World) RemoveHazard(id string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	at, ok := w.hazardIdx[id]
	if !ok {
		return false
	}
	copy(w.hazards[at:], w.hazards[at+1:])
	w.hazards = w.hazards[:len(w.hazards)-1]
	delete(w.hazardIdx, id)
	for i := int(at); i < len(w.hazards); i++ {
		w.hazardIdx[w.hazards[i].ID] = int32(i)
	}
	return true
}

// Humans returns copies of all humans, sorted by ID.
func (w *World) Humans() []Human {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Human, 0, len(w.humans))
	for _, i := range w.humanOrder {
		out = append(out, w.humans[i])
	}
	return out
}

// Hazards returns copies of all hazards, sorted by ID.
func (w *World) Hazards() []Hazard {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Hazard, len(w.hazards))
	copy(out, w.hazards)
	return out
}

// HumansWithin returns the IDs of unharmed humans within radius
// (Chebyshev) of pos, sorted.
func (w *World) HumansWithin(pos Pos, radius int) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, i := range w.humanOrder {
		h := &w.humans[i]
		if !h.Harmed && h.Pos.Dist(pos) <= radius {
			out = append(out, h.ID)
		}
	}
	return out
}

// Strike applies direct harm at pos: every unharmed human within the
// blast radius is harmed, in canonical ID order. It returns the number
// of humans harmed. This models a kinetic device action.
func (w *World) Strike(pos Pos, radius int, severity float64, cause string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, i := range w.humanOrder {
		h := &w.humans[i]
		if h.Harmed || h.Pos.Dist(pos) > radius {
			continue
		}
		h.Harmed = true
		w.harms = append(w.harms, HarmEvent{
			Time:     w.clock.Now(),
			HumanID:  h.ID,
			Cause:    cause,
			Severity: severity,
			Direct:   true,
		})
		n++
	}
	return n
}

// StepHumans advances every unharmed, non-stationary human one random
// 8-directional step (staying in bounds), then applies hazard
// encounters: a human on a hazard cell is harmed unless the hazard is
// marked and the human notices the warning. Humans step in canonical
// ID order and hazards are tested in canonical ID order, so rng
// consumption is deterministic.
func (w *World) StepHumans() {
	w.mu.Lock()
	defer w.mu.Unlock()

	for _, idx := range w.humanOrder {
		h := &w.humans[idx]
		if h.Harmed {
			continue
		}
		if !h.Stationary {
			h.Pos = w.clampLocked(Pos{
				X: h.Pos.X + w.rng.Intn(3) - 1,
				Y: h.Pos.Y + w.rng.Intn(3) - 1,
			})
		}
		for k := range w.hazards {
			hz := &w.hazards[k]
			if hz.Pos != h.Pos {
				continue
			}
			if hz.Marked && w.rng.Float64() < w.markedAvoidProb {
				continue
			}
			h.Harmed = true
			w.harms = append(w.harms, HarmEvent{
				Time:     w.clock.Now(),
				HumanID:  h.ID,
				Cause:    fmt.Sprintf("%s:%s", hz.Kind, hz.ID),
				Severity: hz.Severity,
				Direct:   false,
			})
			break
		}
	}
}

// Harms returns a copy of all recorded harm events.
func (w *World) Harms() []HarmEvent {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]HarmEvent, len(w.harms))
	copy(out, w.harms)
	return out
}

// HarmCounts returns the number of direct and indirect harm events.
func (w *World) HarmCounts() (direct, indirect int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, h := range w.harms {
		if h.Direct {
			direct++
		} else {
			indirect++
		}
	}
	return direct, indirect
}

func (w *World) clampLocked(p Pos) Pos {
	if p.X < 0 {
		p.X = 0
	}
	if p.X >= w.w {
		p.X = w.w - 1
	}
	if p.Y < 0 {
		p.Y = 0
	}
	if p.Y >= w.h {
		p.Y = w.h - 1
	}
	return p
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
