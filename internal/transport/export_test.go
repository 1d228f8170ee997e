package transport

// DroppedOnStop reports how many sends and closures were discarded
// because they raced with or followed Stop.
func (l *Live) DroppedOnStop() uint64 { return l.droppedOnStop.Load() }
