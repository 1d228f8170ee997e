package trace

// Completions returns the number of finished requests.
func (w *Watchdog) Completions() uint64 { return w.completions }
