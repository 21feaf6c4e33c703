package dijkstra

// SetStamp sets the generation stamp of c's labels, for tests that cross its
// wrap.
func (c *Context) SetStamp(stamp uint32) { c.q.Cur = stamp }

// SetStamp sets the generation stamp of both sides' labels, for tests that
// cross its wrap.
func (b *Bidirectional) SetStamp(stamp uint32) { b.side[0].Cur, b.side[1].Cur = stamp, stamp }
