package policy

import (
	"strings"
	"sync/atomic"

	"repro/internal/telemetry"
)

// This file is the partial-evaluation pass of the decision plane
// (OPA-style "partial eval then residual"): given a device's static
// profile, every condition sub-tree that references only static
// quantities is evaluated once and folded to a constant, policies
// whose conditions fold to false are dropped, and what remains —
// the residual — is recompiled (indexes and forbid-coverage table
// over the surviving set only) into a snapshot the device evaluates
// at decision time. For environments carrying the same profile, a
// residual's decisions are byte-identical to the full snapshot's,
// including Vetoed attribution and audit-visible match order; the
// differential property suite proves it.

// Residual is a Snapshot specialized to one static profile. It embeds
// the specialized snapshot, so it satisfies the whole read-side
// contract — Evaluate, EvaluateInto, ForbidsAction, VetoesStatically,
// epoch and revision accessors — and threads through guards unchanged.
type Residual struct {
	*Snapshot
	profile StaticEnv
	full    *Snapshot
}

// Profile returns the static profile this residual was specialized
// for.
func (r *Residual) Profile() StaticEnv { return r.profile }

// Full returns the full snapshot this residual was specialized from.
// Callers cache residuals by comparing Full against the set's current
// snapshot pointer.
func (r *Residual) Full() *Snapshot { return r.full }

// Snap returns the residual's specialized snapshot view, for APIs
// typed against *Snapshot (guard contexts, audit stamping).
func (r *Residual) Snap() *Snapshot { return r.Snapshot }

// residualStats is the Set-lifetime specialization accounting, shared
// by every snapshot the set compiles. The telemetry handles are nil
// until Instrument.
type residualStats struct {
	compiles atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
	instr    atomic.Pointer[residualInstruments]
}

// residualInstruments bundles the policy.residual_* telemetry handles.
type residualInstruments struct {
	compiles *telemetry.Counter
	hits     *telemetry.Counter
	misses   *telemetry.Counter
}

// ResidualFingerprint returns the profile fingerprint a residual
// snapshot was specialized for, and "" on full snapshots. Audit
// contexts stamp it beside the policy epoch so a journal entry pins
// both the compilation and the specialization a decision was made
// under.
func (s *Snapshot) ResidualFingerprint() string { return s.residualFP }

// Specialize partially evaluates the snapshot against a device's
// static profile and returns the residual. Residuals are cached per
// (snapshot, profile fingerprint): the thousands of devices sharing a
// profile share one residual, and memory stays O(profiles), not
// O(devices). The cache lives on the snapshot itself, so every
// mutation or ApplyRevision — which atomically invalidates the
// published snapshot — atomically invalidates all residuals with it;
// a residual can never outlive or mix with another epoch's policies.
//
// Specializing an already-specialized snapshot is well-defined
// (folding is idempotent) but wasteful; callers always specialize the
// set's published full snapshot.
func (s *Snapshot) Specialize(profile StaticEnv) *Residual {
	fp := profile.Fingerprint()
	if r := s.res1.Load(); r != nil && r.profile.Fingerprint() == fp {
		s.countResidual(true, false)
		return r
	}
	if cached, ok := s.residuals.Load(fp); ok {
		r := cached.(*Residual)
		s.countResidual(true, false)
		return r
	}
	r := s.specialize(profile, fp)
	if s.res1.CompareAndSwap(nil, r) {
		// First profile this snapshot sees: the single-slot front cache
		// holds it without a map entry. A concurrent same-profile
		// Specialize that lost the race overflows to the map below and
		// returns an equal residual — pointer identity across racers is
		// not part of the contract.
		s.countResidual(false, true)
		return r
	}
	actual, loaded := s.residuals.LoadOrStore(fp, r)
	r = actual.(*Residual)
	s.countResidual(false, !loaded)
	return r
}

// countResidual books one Specialize outcome into the set-lifetime
// stats and (when instrumented) the policy.residual_* series.
func (s *Snapshot) countResidual(hit, compiled bool) {
	rs := s.resStats
	if rs == nil {
		return
	}
	if hit {
		rs.hits.Add(1)
	} else {
		rs.misses.Add(1)
	}
	if compiled {
		rs.compiles.Add(1)
	}
	in := rs.instr.Load()
	if in == nil {
		return
	}
	if hit {
		in.hits.Inc()
	} else {
		in.misses.Inc()
	}
	if compiled {
		in.compiles.Inc()
	}
}

// specialize builds the residual: fold every condition against the
// profile, drop statically-false policies, and recompile the
// surviving set (event-type indexes and forbid-coverage table over
// survivors only, preserving global evaluation order).
//
// When folding is the identity — no policy drops and no condition
// changes, the common case for policy sets without static-scoped
// conditions — the residual shares the full snapshot instead of
// recompiling an equal copy. Per-device sets then pay one wrapper
// allocation per profile, not a snapshot compile; such residuals keep
// ResidualFingerprint == "" because their decisions are the full
// snapshot's own.
func (s *Snapshot) specialize(profile StaticEnv, fp string) *Residual {
	if !s.foldWouldChange(profile) {
		return &Residual{Snapshot: s, profile: profile, full: s}
	}
	survivors := make([]Policy, 0, len(s.sorted))
	for i := range s.sorted {
		p := s.sorted[i].Policy
		folded, known, val, _ := foldCond(p.Condition, profile)
		if known {
			if !val {
				continue // statically false: this device can never match it
			}
			folded = nil // statically true: no runtime check left
		}
		p.Condition = folded
		survivors = append(survivors, p)
	}
	snap := compileSnapshot(survivors, s.matchCat, s.epoch)
	snap.revision = s.revision
	snap.evalMS = s.evalMS
	snap.resStats = s.resStats
	snap.residualFP = fp
	return &Residual{Snapshot: snap, profile: profile, full: s}
}

// foldWouldChange reports whether specializing against the profile
// folds anything at all: a dropped policy, a constant-folded sub-tree,
// or a statically-true condition that was not already trivially true.
// It allocates nothing on the all-identity path.
func (s *Snapshot) foldWouldChange(profile StaticEnv) bool {
	for i := range s.sorted {
		c := s.sorted[i].Policy.Condition
		folded, known, val, same := foldCond(c, profile)
		_ = folded
		if known {
			if !val {
				return true // a policy would drop
			}
			if c != nil {
				if _, trivial := c.(True); !trivial {
					return true // a non-trivial condition folds to true
				}
			}
			continue
		}
		if !same {
			return true // a sub-tree folds away
		}
	}
	return false
}

// foldCond partially evaluates a condition tree against a static
// profile. It returns the folded tree plus (known, value, same): when
// known is true the whole tree is the constant value and the returned
// tree is True/False accordingly; otherwise the returned tree still
// depends on runtime data, with every statically-decidable sub-tree
// folded away. same reports that the returned tree is the input
// untouched, letting callers (and enclosing And/Or nodes) skip
// rebuilding trees the profile does not reach — an unchanged sub-tree
// costs no allocation. The folded tree holds for exactly the
// environments the original holds for, provided env.Static equals the
// profile.
func foldCond(c Condition, se StaticEnv) (Condition, bool, bool, bool) {
	switch n := c.(type) {
	case nil:
		return nil, true, true, true
	case True:
		return n, true, true, true
	case False:
		return n, true, false, true
	case Threshold:
		name, ok := strings.CutPrefix(n.Quantity, StaticPrefix)
		if !ok {
			return n, false, false, true
		}
		v, present := se.Attr(name)
		if !present {
			return False{}, true, false, false // a missing quantity never satisfies
		}
		if cmpHolds(n.Op, v, n.Value) {
			return True{}, true, true, false
		}
		return False{}, true, false, false
	case LabelEquals:
		name, ok := strings.CutPrefix(n.Label, StaticPrefix)
		if !ok {
			return n, false, false, true
		}
		if se.Label(name) == n.Value {
			return True{}, true, true, false
		}
		return False{}, true, false, false
	case CondFunc:
		if !n.Static {
			return n, false, false, true
		}
		if n.Fn == nil || !n.Fn(Env{Static: se}) {
			return False{}, true, false, false
		}
		return True{}, true, true, false
	case Not:
		if n.Of == nil {
			return False{}, true, false, false // Not{nil} never holds
		}
		inner, known, val, same := foldCond(n.Of, se)
		if known {
			if val {
				return False{}, true, false, false
			}
			return True{}, true, true, false
		}
		if same {
			return n, false, false, true
		}
		return Not{Of: inner}, false, false, false
	case And:
		if len(n) == 0 {
			return True{}, true, true, false // the empty And holds
		}
		// Copy-on-write: members copy into rest only once the first
		// fold diverges from the input.
		var rest And
		mutated := false
		for i, m := range n {
			folded, known, val, same := foldCond(m, se)
			if known && !val {
				return False{}, true, false, false
			}
			diverged := known || !same // const-true member drops, or sub-tree changed
			if diverged && !mutated {
				rest = append(make(And, 0, len(n)), n[:i]...)
				mutated = true
			}
			if !mutated {
				continue
			}
			if known {
				continue // a constant-true member adds nothing
			}
			rest = append(rest, folded)
		}
		if !mutated {
			return n, false, false, true
		}
		switch len(rest) {
		case 0:
			return True{}, true, true, false
		case 1:
			return rest[0], false, false, false
		default:
			return rest, false, false, false
		}
	case Or:
		if len(n) == 0 {
			return False{}, true, false, false // the empty Or does not hold
		}
		var rest Or
		mutated := false
		for i, m := range n {
			folded, known, val, same := foldCond(m, se)
			if known && val {
				return True{}, true, true, false
			}
			diverged := known || !same // const-false member drops, or sub-tree changed
			if diverged && !mutated {
				rest = append(make(Or, 0, len(n)), n[:i]...)
				mutated = true
			}
			if !mutated {
				continue
			}
			if known {
				continue // a constant-false member adds nothing
			}
			rest = append(rest, folded)
		}
		if !mutated {
			return n, false, false, true
		}
		switch len(rest) {
		case 0:
			return False{}, true, false, false
		case 1:
			return rest[0], false, false, false
		default:
			return rest, false, false, false
		}
	default:
		// Unknown condition types are opaque to the folder: keep them
		// for runtime evaluation.
		return c, false, false, true
	}
}
