package replication

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/cdr"
)

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// activeInvocationAllocBudget bounds the whole-process allocations of one
// ACTIVE invocation on an in-process three-replica group (client on a
// fourth node, eight concurrent callers, a 256-byte octet-sequence
// argument): every replica's execution, the client call, every ring's
// frames and tokens, and whatever the background loops allocate meanwhile.
// Measured at 9.3 per invocation on a 2-vCPU host, idle or beside a
// CPU-bound test run; the budget adds a quarter for scheduling noise (how
// many token hops and heartbeats an invocation spans). Allocating each
// decoded message, dedup record, execution record, reply record and call
// record on its own cost 28; encoding each body twice and allocating the
// invocation, its deterministic context, its nested-call context and a
// queue per token visit separately cost 61.
const activeInvocationAllocBudget = 12

// TestActiveInvocationAllocs pins the allocation cost of the ACTIVE
// invocation path end to end.
func TestActiveInvocationAllocs(t *testing.T) {
	const clients = 8
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	c := newCluster(t, 4)
	c.host(GroupDef{ID: 21, Name: "allocs", Style: Active}, "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 21})
	payload := make([]byte, 256)
	// invoke runs n invocations from clients concurrent callers, so the
	// ring batches them as it does under load and the background loops'
	// own allocations (heartbeats, hello gossip) spread over many calls.
	invoke := func(n int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/clients; i++ {
					if _, err := proxy.Invoke("add", cdr.Long(1), cdr.OctetSeq(payload)); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	invoke(800) // warm the pools, the queues and the dedup tables
	const ops = 8000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	invoke(ops)
	runtime.ReadMemStats(&m1)
	perOp := float64(m1.Mallocs-m0.Mallocs) / ops
	t.Logf("%.1f allocs per ACTIVE invocation (budget %d)", perOp, activeInvocationAllocBudget)
	if perOp > activeInvocationAllocBudget {
		t.Fatalf("%.1f allocs per ACTIVE invocation, budget %d", perOp, activeInvocationAllocBudget)
	}
}
