package arcflags

// SetStamp sets the generation stamp of both sides' labels, for tests that
// cross its wrap.
func (s *Searcher) SetStamp(stamp uint32) { s.side[0].Cur, s.side[1].Cur = stamp, stamp }
