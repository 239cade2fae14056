package transport

// MaxPipelinedPerConn lets the fabric table fill a TCP connection's
// pipeline so the next request waits for a slot.
const MaxPipelinedPerConn = maxPipelinedPerConn
