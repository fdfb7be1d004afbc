package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/statespace"
)

// ErrNoCheckpoint is returned when the journal holds no checkpoint for
// the requested device.
var ErrNoCheckpoint = errors.New("resilience: no checkpoint for device")

// Checkpoint appends a recovery checkpoint for the device to the audit
// journal: its state (with schema) and its policy set rendered as DSL
// source. Because the journal is hash-chained, a restore can verify
// the checkpoint was not tampered with before trusting it — the
// crash-recovery analogue of the paper's break-glass audit requirement.
// Policies not representable in the DSL (e.g. learned emulators) are
// skipped and counted in the entry's context.
func Checkpoint(log *audit.Log, d *device.Device) error {
	if log == nil || d == nil {
		return errors.New("resilience: checkpoint needs a log and a device")
	}
	st := d.CurrentState()
	if !st.Valid() {
		return fmt.Errorf("resilience: device %s has no valid state", d.ID())
	}
	schemaJSON, err := json.Marshal(st.Schema().Spec())
	if err != nil {
		return fmt.Errorf("resilience: marshal schema: %w", err)
	}
	stateJSON, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("resilience: marshal state: %w", err)
	}

	var sources []string
	origins := make(map[string]int)
	skipped := 0
	for _, p := range d.Policies().All() {
		src, err := policylang.Format(p)
		if err != nil {
			skipped++
			continue
		}
		sources = append(sources, src)
		origins[p.ID] = int(p.Origin)
	}
	originsJSON, err := json.Marshal(origins)
	if err != nil {
		return fmt.Errorf("resilience: marshal origins: %w", err)
	}

	ctx := map[string]string{
		"schema":   string(schemaJSON),
		"state":    string(stateJSON),
		"policies": strings.Join(sources, "\n"),
		"origins":  string(originsJSON),
	}
	if skipped > 0 {
		ctx["skipped"] = fmt.Sprintf("%d", skipped)
	}
	detail := fmt.Sprintf("checkpoint: %d policies, state %s", len(sources), st)
	log.Append(audit.KindCheckpoint, d.ID(), detail, ctx)
	return nil
}

// Snapshot is a decoded checkpoint, ready to rebuild a device.
type Snapshot struct {
	// DeviceID identifies the checkpointed device.
	DeviceID string
	// Seq is the journal position the snapshot came from.
	Seq int
	// State is the checkpointed device state.
	State statespace.State
	// Policies are the recompiled checkpointed policies with their
	// original provenance.
	Policies []policy.Policy
}

// LatestSnapshot verifies the journal's hash chain and decodes the
// most recent checkpoint for the device, which the journal finds
// without scanning. A broken chain refuses recovery: a journal that
// cannot be trusted must not seed a device's state.
func LatestSnapshot(log *audit.Log, deviceID string) (Snapshot, error) {
	if log == nil {
		return Snapshot{}, errors.New("resilience: recovery needs a journal")
	}
	if err := log.Verify(); err != nil {
		return Snapshot{}, fmt.Errorf("resilience: refusing recovery: %w", err)
	}
	e, ok := log.LatestCheckpoint(deviceID)
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrNoCheckpoint, deviceID)
	}
	return decodeSnapshot(e)
}

func decodeSnapshot(e audit.Entry) (Snapshot, error) {
	var specs []statespace.VariableSpec
	if err := json.Unmarshal([]byte(e.Context["schema"]), &specs); err != nil {
		return Snapshot{}, fmt.Errorf("resilience: checkpoint %d schema: %w", e.Seq, err)
	}
	schema, err := statespace.SchemaFromSpec(specs)
	if err != nil {
		return Snapshot{}, fmt.Errorf("resilience: checkpoint %d schema: %w", e.Seq, err)
	}
	st, err := schema.StateFromJSON([]byte(e.Context["state"]))
	if err != nil {
		return Snapshot{}, fmt.Errorf("resilience: checkpoint %d state: %w", e.Seq, err)
	}

	var policies []policy.Policy
	if src := e.Context["policies"]; strings.TrimSpace(src) != "" {
		policies, err = policylang.CompileSource(src, policy.OriginBuiltin)
		if err != nil {
			return Snapshot{}, fmt.Errorf("resilience: checkpoint %d policies: %w", e.Seq, err)
		}
		var origins map[string]int
		if err := json.Unmarshal([]byte(e.Context["origins"]), &origins); err == nil {
			for i := range policies {
				if o, ok := origins[policies[i].ID]; ok {
					policies[i].Origin = policy.Origin(o)
				}
			}
		}
	}
	return Snapshot{DeviceID: e.Actor, Seq: e.Seq, State: st, Policies: policies}, nil
}

// SnapshotFromEntries decodes the most recent checkpoint for the
// device from journal entries exported from a Log (e.g. after JSON
// round-tripping on another machine), verifying the hash chain first —
// a forged or reordered journal must never seed a device's state.
func SnapshotFromEntries(entries []audit.Entry, deviceID string) (Snapshot, error) {
	if err := audit.VerifyEntries(entries); err != nil {
		return Snapshot{}, fmt.Errorf("resilience: refusing recovery: %w", err)
	}
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Kind == audit.KindCheckpoint && entries[i].Actor == deviceID {
			return decodeSnapshot(entries[i])
		}
	}
	return Snapshot{}, fmt.Errorf("%w: %q", ErrNoCheckpoint, deviceID)
}

// Restore rebuilds a device from a snapshot. The config supplies the
// non-serializable wiring — guard, kill switch, audit log, actuators
// are registered by the caller afterwards — while the snapshot fixes
// identity, state and policies.
func Restore(snap Snapshot, cfg device.Config) (*device.Device, error) {
	cfg.ID = snap.DeviceID
	cfg.Initial = snap.State
	cfg.Policies = nil // the snapshot's policies are added below
	d, err := device.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("resilience: restore %s: %w", snap.DeviceID, err)
	}
	for _, p := range snap.Policies {
		if err := d.Policies().Add(p); err != nil {
			return nil, fmt.Errorf("resilience: restore %s: %w", snap.DeviceID, err)
		}
	}
	return d, nil
}

// Recover is the one-call crash-recovery path: verify the journal,
// decode the device's latest checkpoint, and rebuild the device.
func Recover(log *audit.Log, deviceID string, cfg device.Config) (*device.Device, error) {
	snap, err := LatestSnapshot(log, deviceID)
	if err != nil {
		return nil, err
	}
	return Restore(snap, cfg)
}
