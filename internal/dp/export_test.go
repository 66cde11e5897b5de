package dp

// SetReplayAudit installs f as the replay audit (nil removes it), for the
// step-memo audit in the external test package.
func SetReplayAudit(f func(pr *Prepared, replay *Result)) { replayAudit = f }
