package pq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHeapBasic(t *testing.T) {
	h := New(10)
	if !h.Empty() {
		t.Fatal("new heap should be empty")
	}
	h.Push(3, 30)
	h.Push(1, 10)
	h.Push(2, 20)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	if id, key := h.Min(); id != 1 || key != 10 {
		t.Fatalf("Min = (%d, %d), want (1, 10)", id, key)
	}
	id, key := h.Pop()
	if id != 1 || key != 10 {
		t.Fatalf("Pop = (%d, %d), want (1, 10)", id, key)
	}
	if h.Contains(1) {
		t.Fatal("popped id should not be contained")
	}
	if !h.Contains(2) || h.Key(2) != 20 {
		t.Fatal("id 2 should be on the heap with key 20")
	}
}

func TestHeapDecreaseKey(t *testing.T) {
	h := New(5)
	h.Push(0, 100)
	h.Push(1, 50)
	h.Push(2, 75)
	h.Push(0, 10) // decrease
	if id, key := h.Min(); id != 0 || key != 10 {
		t.Fatalf("after decrease, Min = (%d, %d), want (0, 10)", id, key)
	}
	h.Push(0, 200) // increase is allowed too
	if id, _ := h.Min(); id != 1 {
		t.Fatalf("after increase, Min id = %d, want 1", id)
	}
}

func TestHeapClear(t *testing.T) {
	h := New(4)
	h.Push(0, 1)
	h.Push(3, 2)
	h.Clear()
	if !h.Empty() || h.Contains(0) || h.Contains(3) {
		t.Fatal("Clear did not reset heap")
	}
	h.Push(3, 9)
	if id, key := h.Pop(); id != 3 || key != 9 {
		t.Fatalf("heap unusable after Clear: got (%d, %d)", id, key)
	}
}

func TestHeapSortsRandomKeys(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(42))
	h := New(n)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 40)
		h.Push(int32(i), keys[i])
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i := 0; i < n; i++ {
		_, key := h.Pop()
		if key != keys[i] {
			t.Fatalf("pop %d: key %d, want %d", i, key, keys[i])
		}
	}
	if !h.Empty() {
		t.Fatal("heap should be empty after popping everything")
	}
}

func TestHeapRandomMixedOps(t *testing.T) {
	// Model-based test against a map.
	rng := rand.New(rand.NewSource(7))
	const capacity = 64
	h := New(capacity)
	model := map[int32]int64{}
	for op := 0; op < 20000; op++ {
		switch rng.Intn(3) {
		case 0, 1: // push/update
			id := int32(rng.Intn(capacity))
			key := rng.Int63n(1000)
			h.Push(id, key)
			model[id] = key
		case 2: // pop
			if len(model) == 0 {
				continue
			}
			id, key := h.Pop()
			want, ok := model[id]
			if !ok || want != key {
				t.Fatalf("op %d: popped (%d, %d), model has %d (present=%v)", op, id, key, want, ok)
			}
			for mid, mkey := range model {
				if mkey < key {
					t.Fatalf("op %d: popped key %d but model holds smaller key %d (id %d)", op, key, mkey, mid)
				}
			}
			delete(model, id)
		}
	}
	if h.Len() != len(model) {
		t.Fatalf("length mismatch: heap %d, model %d", h.Len(), len(model))
	}
}

// TestPopOrderDigest pins the order of every pop, ties included, over a run
// of pushes, decrease-keys, increase-keys and pops: keys in [0, 64) tie
// constantly and random ids hit queued ids both ways. The digest is FNV-1a
// over each popped (id, key); it was generated with the swap-based heap
// this package had before its hole-sifting one, and a heap that breaks a
// tie differently fails it.
func TestPopOrderDigest(t *testing.T) {
	const want = 0x57ca22ffb514fe21
	rng := rand.New(rand.NewSource(7))
	h := New(4096)
	sum := uint64(14695981039346656037)
	for i := 0; i < 1<<18; i++ {
		if (i%3 == 2 || h.Len() > 1000) && !h.Empty() {
			id, key := h.Pop()
			sum = (sum ^ uint64(id)) * 1099511628211
			sum = (sum ^ uint64(key)) * 1099511628211
			continue
		}
		h.Push(int32(rng.Intn(4096)), rng.Int63n(64))
	}
	if sum != want {
		t.Errorf("pop-order digest %#016x, want %#016x", sum, uint64(want))
	}
}

// TestPopOrderDigestExtremeKeys is TestPopOrderDigest over the whole int64
// range: keys drawn from eleven values, math.MinInt64 and math.MaxInt64,
// negatives and their neighbours among them, so ties are constant and
// re-pushed ids jump across the range, where a pick that subtracts two keys
// overflows. The CH build's priority heap holds negative keys. The digest
// was generated with the branching child pick this package had before its
// branch-free one.
func TestPopOrderDigestExtremeKeys(t *testing.T) {
	const want = 0xb01761048ba4da54
	keys := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -3, -1, 0, 1, 2, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(11))
	h := New(1024)
	sum := uint64(14695981039346656037)
	for i := 0; i < 1<<18; i++ {
		if (i%3 == 2 || h.Len() > 300) && !h.Empty() {
			id, key := h.Pop()
			sum = (sum ^ uint64(id)) * 1099511628211
			sum = (sum ^ uint64(key)) * 1099511628211
			continue
		}
		h.Push(int32(rng.Intn(1024)), keys[rng.Intn(len(keys))])
	}
	if sum != want {
		t.Errorf("pop-order digest %#016x, want %#016x", sum, uint64(want))
	}
}

// BenchmarkPushPop is the benchmark's pq.push_pop sequence: 2^20 pushes,
// key changes and pops over 2^16 ids with 40-bit keys, two pushes to a pop
// until the heap is 4096 deep, then one to one. ns/op is per heap operation.
func BenchmarkPushPop(b *testing.B) {
	const ops, ids = 1 << 20, 1 << 16
	rng := rand.New(rand.NewSource(20120501))
	type op struct {
		id  int32
		key int64
	}
	seq := make([]op, ops)
	for i := range seq {
		seq[i] = op{int32(rng.Intn(ids)), rng.Int63n(1 << 40)}
	}
	h := New(ids)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		h.Clear()
		for i, o := range seq {
			if (i%3 == 2 || h.Len() > 4096) && !h.Empty() {
				h.Pop()
				continue
			}
			h.Push(o.id, o.key)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/heap-op")
}
