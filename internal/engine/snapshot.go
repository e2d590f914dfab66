package engine

import "repro/internal/expr"

// ActivitySnapshot is the persistent-state view of one activity instance
// inside an InstanceSnapshot: its stored navigation state, loop iteration
// counter, and dead-path mark.
type ActivitySnapshot struct {
	Path  string
	State string
	Iter  int
	Dead  bool
}

// InstanceSnapshot captures the externally observable persistent state of
// an instance: status, activity states with their loop iteration
// counters, the root output container values, and the audit-trail
// high-water mark. It is the equality oracle of the checkpoint subsystem:
// recovery — whether by full replay or seeded from a checkpoint — must
// reproduce the snapshot a crash-free run reaches (restore is implemented
// as deterministic re-navigation over compacted records, see
// RecoverAllFromCheckpoint; the property tests and the E9 soak assert
// snapshot equality across every recovery path).
type InstanceSnapshot struct {
	ID      string
	Process string
	Status  string
	Cause   string
	// Output holds the root output container's values.
	Output map[string]expr.Value
	// Activities is sorted by path.
	Activities []ActivitySnapshot
	// TrailLen is the audit-trail high-water mark.
	TrailLen int
}

// Snapshot captures the instance's persistent state. Like Output and
// Trail it is a monitoring view: call it after the instance has stopped
// (finished, failed, or crashed) for a stable result.
func (inst *Instance) Snapshot() *InstanceSnapshot {
	status, cause := inst.StatusInfo()
	s := &InstanceSnapshot{
		ID:       inst.id,
		Process:  inst.tpl.proc.Name,
		Status:   status,
		Cause:    cause,
		Output:   inst.root.output.Snapshot(),
		TrailLen: len(inst.trail),
	}
	ais := inst.Activities()
	s.Activities = make([]ActivitySnapshot, len(ais))
	for i, ai := range ais {
		s.Activities[i] = ActivitySnapshot{Path: ai.Path, State: ai.State.String(), Iter: ai.Iter, Dead: ai.Dead}
	}
	return s
}

// Equal reports whether two snapshots describe identical persistent
// state.
func (s *InstanceSnapshot) Equal(o *InstanceSnapshot) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.ID != o.ID || s.Process != o.Process || s.Status != o.Status ||
		s.Cause != o.Cause || s.TrailLen != o.TrailLen ||
		len(s.Output) != len(o.Output) || len(s.Activities) != len(o.Activities) {
		return false
	}
	for k, v := range s.Output {
		ov, ok := o.Output[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	for i := range s.Activities {
		if s.Activities[i] != o.Activities[i] {
			return false
		}
	}
	return true
}
