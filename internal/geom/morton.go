package geom

import "sort"

// The Z-order (Morton) curve maps 2-D cell coordinates to a 1-D key while
// preserving spatial locality. SILC stores each colored quadtree region as a
// contiguous interval of Morton codes (Samet et al.), which is the concise
// O(sqrt n)-regions-per-vertex representation the paper describes in §3.4.

// MortonEncode interleaves the bits of x and y (each at most 31 bits) into
// a single 62-bit Z-order key: bit i of x becomes bit 2i, bit i of y becomes
// bit 2i+1.
func MortonEncode(x, y uint32) uint64 {
	return spreadBits(x) | spreadBits(y)<<1
}

// spreadBits inserts a zero bit between every bit of v.
func spreadBits(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// MortonOrder returns the indices of code sorted by code, the vertex order
// of SILC's and PCPD's quadtrees; ties come out the same on every run.
func MortonOrder(code []uint32) []int32 {
	order := make([]int32, len(code))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return code[order[i]] < code[order[j]] })
	return order
}
