package pq

// Key returns the current key of id, for tests; id must be on the heap.
func (h *Heap) Key(id int32) int64 { return h.e[h.pos[id]].key }
