package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// value returns an fn that counts its runs and yields v.
func value(runs *atomic.Int64, v int) func() (int, error) {
	return func() (int, error) {
		runs.Add(1)
		return v, nil
	}
}

// walk returns the keys Walk visits, in order.
func walk(t *Table[string, int]) []string {
	var keys []string
	t.Walk(func(k string, _ int) { keys = append(keys, k) })
	return keys
}

// N concurrent Gets of one key run fn once and all see its value.
func TestGetRunsOnceForConcurrentCallers(t *testing.T) {
	var tab Table[string, int]
	const n = 16
	var runs, hits atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	fn := func() (int, error) {
		if runs.Add(1) == 1 {
			close(started)
		}
		<-release
		return 42, nil
	}
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := tab.Get("k", fn)
			if err != nil || v != 42 {
				t.Errorf("Get = %v, %v; want 42", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	<-started
	close(release)
	wg.Wait()
	if runs.Load() != 1 || hits.Load() != n-1 || tab.Len() != 1 {
		t.Fatalf("runs %d, hits %d, len %d; want 1 run and %d hits on 1 entry", runs.Load(), hits.Load(), tab.Len(), n-1)
	}
}

// A failed run is not kept: its caller gets the error, and the next Get
// for the key runs again. So is a run that panicked.
func TestFailedRunIsRetried(t *testing.T) {
	var tab Table[string, int]
	boom := errors.New("boom")
	if _, hit, err := tab.Get("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) || hit {
		t.Fatalf("failing Get: hit %v, err %v", hit, err)
	}
	if tab.Len() != 0 {
		t.Fatalf("failed entry kept: len %d", tab.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fn's panic must reach the caller")
			}
		}()
		tab.Get("k", func() (int, error) { panic("estimator bug") })
	}()
	if tab.Len() != 0 {
		t.Fatalf("panicked entry kept: len %d", tab.Len())
	}
	var runs atomic.Int64
	if v, hit, err := tab.Get("k", value(&runs, 7)); v != 7 || hit || err != nil || runs.Load() != 1 {
		t.Fatalf("retry: %v %v %v after %d runs", v, hit, err, runs.Load())
	}
	if v, hit, err := tab.Get("k", value(&runs, 8)); v != 7 || !hit || err != nil || runs.Load() != 1 {
		t.Fatalf("retried value must stick: %v %v %v after %d runs", v, hit, err, runs.Load())
	}
}

// Sweep drops entries untouched for k generations, keeps the ones the
// owner touched, and counts what it dropped.
func TestSweepKeepsTouchedEntries(t *testing.T) {
	var tab Table[string, int]
	var runs atomic.Int64
	for i, k := range []string{"a", "b", "c"} {
		tab.Get(k, value(&runs, i))
	}
	tab.BeginGeneration()
	tab.Get("a", value(&runs, -1)) // touched one generation ago at the sweep
	tab.Put("d", 3)                // inserted one generation ago
	tab.BeginGeneration()
	if n := tab.Sweep(0); n != 0 {
		t.Fatalf("Sweep(0) dropped %d", n)
	}
	if n := tab.Sweep(2); n != 2 || tab.Evictions() != 2 {
		t.Fatalf("Sweep(2) dropped %d (evictions %d), want b and c", n, tab.Evictions())
	}
	if got := fmt.Sprint(walk(&tab)); got != "[a d]" {
		t.Fatalf("survivors %s, want [a d]", got)
	}
	tab.BeginGeneration()
	tab.Get("d", value(&runs, -1))
	if n := tab.Sweep(2); n != 1 || tab.Evictions() != 3 || tab.Len() != 1 {
		t.Fatalf("second sweep dropped %d (evictions %d, len %d), want only a", n, tab.Evictions(), tab.Len())
	}
	if runs.Load() != 3 {
		t.Fatalf("hits must not run fn: %d runs", runs.Load())
	}
}

// Walk visits resolved entries from least to most recently used and
// skips entries in flight and runs that failed.
func TestWalkOrderSkipsInFlightAndFailed(t *testing.T) {
	var tab Table[string, int]
	var runs atomic.Int64
	for i, k := range []string{"a", "b", "c"} {
		tab.Get(k, value(&runs, i))
	}
	tab.Get("a", value(&runs, -1))
	tab.Get("failed", func() (int, error) { return 0, errors.New("no") })
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tab.Get("in-flight", func() (int, error) {
			close(started)
			<-release
			return 9, nil
		})
	}()
	<-started
	if got := fmt.Sprint(walk(&tab)); got != "[b c a]" || tab.Len() != 4 {
		t.Fatalf("walk %s over %d entries, want [b c a] beside the in-flight one", got, tab.Len())
	}
	close(release)
	<-done
	if got := fmt.Sprint(walk(&tab)); got != "[b c a in-flight]" {
		t.Fatalf("walk %s once resolved", got)
	}
}

// Put primes a key only when it is absent: it never overwrites a
// resolved entry or one still in flight.
func TestPutNeverOverwrites(t *testing.T) {
	var tab Table[string, int]
	var runs atomic.Int64
	tab.Put("p", 1)
	tab.Put("p", 2)
	if v, hit, _ := tab.Get("p", value(&runs, 3)); v != 1 || !hit || runs.Load() != 0 {
		t.Fatalf("primed Get = %v (hit %v, %d runs), want the first Put", v, hit, runs.Load())
	}
	tab.Get("g", value(&runs, 4))
	tab.Put("g", 5)
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tab.Get("f", func() (int, error) {
			close(started)
			<-release
			return 6, nil
		})
	}()
	<-started
	tab.Put("f", 7)
	close(release)
	<-done
	for k, want := range map[string]int{"g": 4, "f": 6} {
		if v, hit, _ := tab.Get(k, value(&runs, -1)); v != want || !hit {
			t.Fatalf("Get(%q) = %v (hit %v), want %v", k, v, hit, want)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("%d runs, want only g's", runs.Load())
	}
}
