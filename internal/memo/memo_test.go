package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGetConcurrentOnce: concurrent lookups of one key fill it once and
// all see the filled value.
func TestGetConcurrentOnce(t *testing.T) {
	var m Map[int, int]
	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Get(1, func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Get = %d, %v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d fills for 8 concurrent identical lookups, want 1", n)
	}
	if v, _ := m.Get(1, func() (int, error) { return 0, errors.New("refilled") }); v != 42 {
		t.Fatalf("hit = %d, want the memoized 42", v)
	}
}

// TestBound pins Max and checks that a Map never holds more than Max
// entries, keeping the newest key it filled.
func TestBound(t *testing.T) {
	if Max != 256 {
		t.Fatalf("Max = %d, want 256", Max)
	}
	var m Map[int, int]
	for i := 0; i < Max+50; i++ {
		m.Get(i, func() (int, error) { return i, nil })
		if n := m.Len(); n > Max {
			t.Fatalf("after %d fills: %d entries, want at most %d", i+1, n, Max)
		}
	}
	if n := m.Len(); n != Max {
		t.Fatalf("%d entries, want the bound %d", n, Max)
	}
	filled := false
	m.Get(Max+49, func() (int, error) { filled = true; return 0, nil })
	if filled {
		t.Fatal("the newest entry was evicted by its own insertion")
	}
}

// TestErrorNotMemoized: a failed fill returns its error to its caller and
// leaves no entry; the next lookup fills again.
func TestErrorNotMemoized(t *testing.T) {
	var m Map[string, int]
	boom := errors.New("boom")
	if _, err := m.Get("k", func() (int, error) { return 7, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("failed fill left %d entries", n)
	}
	if v, err := m.Get("k", func() (int, error) { return 9, nil }); v != 9 || err != nil {
		t.Fatalf("after a failure: Get = %d, %v; want a fresh fill", v, err)
	}
}

// TestPanicNotMemoized: a panicking fill propagates the panic and leaves
// no entry behind, so a caller that recovers does not poison the key
// with a zero value.
func TestPanicNotMemoized(t *testing.T) {
	var m Map[string, *int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the fill's panic did not propagate")
			}
		}()
		m.Get("k", func() (*int, error) { panic("fill panicked") })
	}()
	if n := m.Len(); n != 0 {
		t.Fatalf("panicked fill left %d entries", n)
	}
	v, err := m.Get("k", func() (*int, error) { x := 3; return &x, nil })
	if err != nil || v == nil || *v != 3 {
		t.Fatalf("after a panic: Get = %v, %v; want a fresh fill", v, err)
	}
}

// TestWaiterRetriesAfterFailure: a lookup that waited on another
// caller's failed (or panicked) fill retries with its own fill rather
// than inherit the failure.
func TestWaiterRetriesAfterFailure(t *testing.T) {
	for _, panics := range []bool{false, true} {
		var m Map[int, int]
		started, release := make(chan struct{}), make(chan struct{})
		go func() {
			defer func() { recover() }()
			m.Get(1, func() (int, error) {
				close(started)
				<-release
				if panics {
					panic("first fill panicked")
				}
				return 0, errors.New("cancelled")
			})
		}()
		<-started
		done := make(chan error)
		go func() {
			v, err := m.Get(1, func() (int, error) { return 9, nil })
			if err == nil && v != 9 {
				err = errors.New("wrong value")
			}
			done <- err
		}()
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("panics=%v: waiter inherited a failed fill: %v", panics, err)
		}
		if v, err := m.Get(1, func() (int, error) { return 0, errors.New("ran again") }); v != 9 || err != nil {
			t.Fatalf("panics=%v: after retry Get = %d, %v; want the waiter's memoized 9", panics, v, err)
		}
	}
}

// TestResetAndRegistry: Reset empties a map, and New registers it under
// its name for Sizes.
func TestResetAndRegistry(t *testing.T) {
	m := New[int, int]("memo.test")
	m.Get(1, func() (int, error) { return 1, nil })
	if n := Sizes()["memo.test"]; n != 1 {
		t.Fatalf("Sizes reports %d entries, want 1", n)
	}
	m.Reset()
	if n := m.Len(); n != 0 {
		t.Fatalf("%d entries after Reset", n)
	}
	filled := false
	m.Get(1, func() (int, error) { filled = true; return 1, nil })
	if !filled {
		t.Fatal("Reset did not drop the entry")
	}
}
