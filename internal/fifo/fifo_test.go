package fifo

import (
	"sync"
	"testing"
	"time"
)

func TestDrainReturnsEverythingInOrder(t *testing.T) {
	q := New[int]()
	for i := 1; i <= 5; i++ {
		q.Push(i)
	}
	got, closed := q.Drain(nil)
	if closed {
		t.Fatal("open queue reported closed")
	}
	if len(got) != 5 {
		t.Fatalf("drained %v, want 1..5", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("drained %v, want 1..5", got)
		}
	}
	if again, _ := q.Drain(got); len(again) != 0 {
		t.Fatalf("second drain returned %v, want nothing", again)
	}
}

// Close keeps what is queued: the consumer drains it together with the
// closed flag, and every later Drain reports closed with nothing more.
func TestDrainAfterCloseReturnsRemainingThenClosed(t *testing.T) {
	q := New[string]()
	q.Push("a")
	q.Push("b")
	q.Close()
	q.Push("c") // dropped: the queue is closed
	got, closed := q.Drain(nil)
	if !closed || len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Drain after Close = %v, %v; want [a b], true", got, closed)
	}
	got, closed = q.Drain(got)
	if !closed || len(got) != 0 {
		t.Fatalf("Drain of a drained closed queue = %v, %v; want [], true", got, closed)
	}
}

// waitReady reports whether Ready fires within a generous deadline.
func waitReady[T any](q *Queue[T]) bool {
	select {
	case <-q.Ready():
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

func TestReadyWakesWaitingConsumerOnPushAndClose(t *testing.T) {
	q := New[int]()
	got := make(chan []int, 1)
	go func() {
		var seen []int
		var batch []int
		for {
			var closed bool
			batch, closed = q.Drain(batch)
			seen = append(seen, batch...)
			if closed {
				got <- seen
				return
			}
			if len(batch) == 0 && !waitReady(q) {
				got <- nil
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer park on Ready
	q.Push(1)
	time.Sleep(10 * time.Millisecond)
	q.Push(2)
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case seen := <-got:
		if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
			t.Fatalf("consumer saw %v, want [1 2] then closed", seen)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consumer never woke for the pushes and the close")
	}
}

// A batch handed back to Drain is zeroed, so the consumer's previous batch
// keeps no item (and nothing an item points into) alive.
func TestReturnedBatchIsCleared(t *testing.T) {
	q := New[*[]byte]()
	for i := 0; i < 3; i++ {
		p := make([]byte, 64)
		q.Push(&p)
	}
	batch, _ := q.Drain(nil)
	held := batch[:len(batch):len(batch)] // a view of the same storage
	q.Drain(batch)
	for i, p := range held {
		if p != nil {
			t.Fatalf("slot %d of the returned batch still holds its item", i)
		}
	}
}

func TestHighWaterIsLargestDrainedBatch(t *testing.T) {
	q := New[int]()
	if q.HighWater() != 0 {
		t.Fatalf("fresh queue high-water %d, want 0", q.HighWater())
	}
	var batch []int
	for i := 0; i < 7; i++ {
		q.Push(i)
	}
	batch, _ = q.Drain(batch)
	q.Push(7)
	batch, _ = q.Drain(batch)
	if len(batch) != 1 || q.HighWater() != 7 {
		t.Fatalf("high-water %d after batches of 7 and 1, want 7", q.HighWater())
	}
}

// Concurrent producers interleave, but each producer's items stay in the
// order it pushed them (run under -race).
func TestConcurrentProducersKeepPerProducerOrder(t *testing.T) {
	const producers, each = 4, 2000
	q := New[[2]int]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q.Push([2]int{p, i})
			}
		}()
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	next := make([]int, producers)
	var batch [][2]int
	for {
		var closed bool
		batch, closed = q.Drain(batch)
		for _, it := range batch {
			if it[1] != next[it[0]] {
				t.Fatalf("producer %d: got item %d, want %d", it[0], it[1], next[it[0]])
			}
			next[it[0]]++
		}
		if closed {
			break
		}
		if len(batch) == 0 && !waitReady(q) {
			t.Fatal("consumer never woke")
		}
	}
	for p, n := range next {
		if n != each {
			t.Fatalf("producer %d: drained %d items, want %d", p, n, each)
		}
	}
}

// Only the push that makes the queue non-empty signals: a burst pushed
// onto a non-empty queue leaves one wake-up, and one Drain after it takes
// the whole burst. The first push after that drain wakes the parked
// consumer again.
func TestBurstSignalsOnceAndDrainsWhole(t *testing.T) {
	q := New[int]()
	const burst = 100
	for i := 0; i < burst; i++ {
		q.Push(i)
	}
	if !waitReady(q) {
		t.Fatal("no wake-up for the burst")
	}
	select {
	case <-q.Ready():
		t.Fatal("a second wake-up pending for one burst")
	default:
	}
	batch, _ := q.Drain(nil)
	if len(batch) != burst {
		t.Fatalf("one Drain after the wake-up took %d items, want %d", len(batch), burst)
	}

	woke := make(chan bool, 1)
	go func() { woke <- waitReady(q) }()
	time.Sleep(10 * time.Millisecond) // let the consumer park
	q.Push(burst)
	if !<-woke {
		t.Fatal("the first push after a drain did not wake the parked consumer")
	}
	if batch, _ = q.Drain(batch); len(batch) != 1 || batch[0] != burst {
		t.Fatalf("Drain after the wake-up = %v, want [%d]", batch, burst)
	}
}
