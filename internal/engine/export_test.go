package engine

// Released reports whether the instance holds none of what RecDone
// releases: no scope input, no inner scope or activity output, no queue and
// no replay index.
func Released(inst *Instance) bool {
	if inst.queue != nil || inst.replay != nil {
		return false
	}
	for _, sc := range inst.scopes {
		if sc.input != nil || (sc != inst.root && sc.output != nil) {
			return false
		}
		for i := range sc.acts {
			if sc.acts[i].output != nil {
				return false
			}
		}
	}
	return true
}
