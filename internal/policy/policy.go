package policy

import (
	"errors"
	"fmt"
)

// Origin records where a policy came from — the paper distinguishes
// logic "built in by the developer", rules "specified explicitly by the
// owner", and in the generative architecture rules the device generates
// itself or receives from peers.
type Origin int

// Origin values.
const (
	OriginBuiltin Origin = iota + 1
	OriginHuman
	OriginGenerated
	OriginShared
)

// String returns the origin's name.
func (o Origin) String() string {
	switch o {
	case OriginBuiltin:
		return "builtin"
	case OriginHuman:
		return "human"
	case OriginGenerated:
		return "generated"
	case OriginShared:
		return "shared"
	default:
		return "unknown"
	}
}

// Modality distinguishes policies that direct an action from policies
// that forbid one.
type Modality int

// Modality values.
const (
	// ModalityDo directs the device to take the policy's action.
	ModalityDo Modality = iota + 1
	// ModalityForbid vetoes matching actions from lower-or-equal
	// priority do-policies.
	ModalityForbid
)

// String returns the modality's name.
func (m Modality) String() string {
	switch m {
	case ModalityDo:
		return "do"
	case ModalityForbid:
		return "forbid"
	default:
		return "unknown"
	}
}

// ErrInvalidPolicy is returned when a policy fails validation.
var ErrInvalidPolicy = errors.New("policy: invalid policy")

// Policy is one event–condition–action rule.
//
// A compiled policy is immutable, and one value may be shared between
// sets: a copy shares its Condition tree and its Action's Params,
// Effect and Obligations, and devices in one process hold the very
// policy a bundle record compiled to (internal/bundle). Code that
// changes a policy builds new values, as Specialize's copy-on-write
// folding and Action.WithObligations do; nothing writes into them.
type Policy struct {
	// ID uniquely identifies the policy within a set.
	ID string
	// Origin records the policy's provenance.
	Origin Origin
	// Organization names the coalition member that owns the policy.
	Organization string
	// Description is free-form documentation.
	Description string
	// EventType is the event type that triggers evaluation;
	// WildcardEvent matches all.
	EventType string
	// Condition gates the policy; nil means always.
	Condition Condition
	// Modality is do or forbid.
	Modality Modality
	// Action is the directed action (do) or the pattern of actions
	// vetoed (forbid): a forbid matches by Name, or by Category when
	// Name is empty.
	Action Action
	// Priority orders policies; higher evaluates first, and a forbid
	// vetoes only do-policies of lower or equal priority.
	Priority int
}

// Validate reports whether the policy is well-formed.
func (p Policy) Validate() error {
	if p.ID == "" {
		return fmt.Errorf("%w: missing ID", ErrInvalidPolicy)
	}
	if p.EventType == "" {
		return fmt.Errorf("%w: policy %s missing event type", ErrInvalidPolicy, p.ID)
	}
	switch p.Modality {
	case ModalityDo:
		if p.Action.Name == "" {
			return fmt.Errorf("%w: do-policy %s has no action", ErrInvalidPolicy, p.ID)
		}
	case ModalityForbid:
		if p.Action.Name == "" && p.Action.Category == "" {
			return fmt.Errorf("%w: forbid-policy %s matches nothing", ErrInvalidPolicy, p.ID)
		}
	default:
		return fmt.Errorf("%w: policy %s has unknown modality", ErrInvalidPolicy, p.ID)
	}
	return nil
}

// Matches reports whether the policy triggers for the environment:
// event type matches and the condition holds.
func (p Policy) Matches(env Env) bool {
	if p.EventType != WildcardEvent && p.EventType != env.Event.Type {
		return false
	}
	if p.Condition == nil {
		return true
	}
	return p.Condition.Holds(env)
}

// condDescription returns the condition text or "true".
func (p Policy) condDescription() string {
	if p.Condition == nil {
		return "true"
	}
	return p.Condition.Describe()
}

// String renders the policy as a one-line rule.
func (p Policy) String() string {
	return fmt.Sprintf("[%s p%d %s] on %s when %s %s %s",
		p.ID, p.Priority, p.Origin, p.EventType, p.condDescription(), p.Modality, p.Action)
}
