package netrun

// MessagesSent returns the number of messages this node put on the
// fabric (local and remote; with a reliability layer this includes acks
// and retransmits — they are real traffic).
func (n *Node) MessagesSent() uint64 { return n.fabric.Stats().Total }
