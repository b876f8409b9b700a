package cdr

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// TestInternHitDoesNotAllocate pins the lock-free hit path: once a spelling
// is published, interning it again allocates nothing.
func TestInternHitDoesNotAllocate(t *testing.T) {
	b := []byte("intern-hit-probe")
	// Repeated slow-path lookups publish the table (see internTab).
	for i := 0; i <= maxInterned; i++ {
		Intern(b)
	}
	if allocs := testing.AllocsPerRun(1000, func() { Intern(b) }); allocs != 0 {
		t.Fatalf("Intern hit: %.1f allocs/op, want 0", allocs)
	}
}

// TestInternConcurrentHitsAndMisses runs hits on a shared vocabulary next to
// misses that insert fresh spellings, from several goroutines at once (run
// it under -race). Every caller must get a string equal to its input, and
// every caller interning the same spelling the same canonical string.
func TestInternConcurrentHitsAndMisses(t *testing.T) {
	const workers, rounds, fresh = 4, 2000, 64
	shared := make([][]byte, 16)
	for i := range shared {
		shared[i] = []byte(fmt.Sprintf("shared-%d", i))
	}
	canon := make([]string, len(shared))
	for i, b := range shared {
		canon[i] = Intern(b)
	}
	var wg sync.WaitGroup
	got := make([][]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := i % len(shared)
				if s := Intern(shared[k]); unsafe.StringData(s) != unsafe.StringData(canon[k]) {
					t.Errorf("worker %d: %q not canonical", w, s)
					return
				}
				if i%(rounds/fresh) == 0 {
					// The same fresh spellings from every worker: concurrent
					// first inserts must agree on one canonical string.
					b := []byte(fmt.Sprintf("fresh-%d", i))
					s := Intern(b)
					if s != string(b) {
						t.Errorf("worker %d: Intern(%q) = %q", w, b, s)
						return
					}
					got[w] = append(got[w], s)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(got[w]) != len(got[0]) {
			t.Fatalf("worker %d interned %d fresh spellings, worker 0 %d", w, len(got[w]), len(got[0]))
		}
		for i := range got[0] {
			if unsafe.StringData(got[w][i]) != unsafe.StringData(got[0][i]) {
				t.Fatalf("workers 0 and %d interned %q to different strings", w, got[0][i])
			}
		}
	}
}
