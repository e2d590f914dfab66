package engine

// Released reports whether the instance holds none of what RecDone
// releases: no scope input, no inner scope or activity output, no queue,
// no work item and no replay index.
func Released(inst *Instance) bool {
	if inst.queue != nil || inst.replay != nil || inst.work != nil {
		return false
	}
	for _, sc := range inst.scopes {
		if sc.input != nil || sc.outputs != nil || (sc != inst.root && sc.output != nil) {
			return false
		}
	}
	return true
}
