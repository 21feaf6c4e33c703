package core

import (
	"errors"
	"testing"

	"roadnet/internal/testutil"
)

// failingCloser stands in for a file mapping whose release fails — the
// munmap-error path CloseIndex must not swallow.
type failingCloser struct {
	err   error
	calls int
}

func (f *failingCloser) Close() error {
	f.calls++
	return f.err
}

func TestCloseIndexPropagatesBackingError(t *testing.T) {
	boom := errors.New("munmap: injected failure")
	f := &failingCloser{err: boom}
	ix := newIndex(testutil.Figure1(), nil)
	ix.backing = f
	if err := CloseIndex(ix); !errors.Is(err, boom) {
		t.Fatalf("CloseIndex = %v, want the backing error", err)
	}
	if f.calls != 1 {
		t.Fatalf("the backing was closed %d times, want 1", f.calls)
	}
}

func TestCloseIndexNoopForBuiltIndex(t *testing.T) {
	g := testutil.Figure1()
	ix, err := BuildIndex(MethodDijkstra, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CloseIndex(ix); err != nil {
		t.Fatalf("CloseIndex on a built index = %v, want nil", err)
	}
}
