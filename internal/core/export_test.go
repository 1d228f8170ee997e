package core

// Waiting exposes waiting_i (for tests).
func (a *Adaptive) Waiting() int { return int(a.waiting) }
