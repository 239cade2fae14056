package fleet

// Broadcaster lets the fleet tests subscribe in process with their own
// ring size and policy; the program subscribes over the wire
// (wire.KindFleetSubscribe), whose handler drives the same broadcaster.
func (m *Master) Broadcaster() *Broadcaster { return m.bc }
