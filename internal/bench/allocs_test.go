package bench

import (
	"fmt"
	"runtime"
	"testing"
)

// TestShardedInvocationAllocs pins the whole-process allocations of one
// invocation in the sharded-transport workload (ACTIVE/3 groups, two
// synchronous clients per group, 50 calls each, a 256-byte echo): every
// replica's execution, the client call, every ring's frames and tokens,
// and whatever the background loops allocate meanwhile. Only the drive
// phase counts; domain setup and group creation do not. Each budget is the
// value measured on a 2-vCPU host, idle or beside a CPU-bound test run
// (steady to ±0.5), plus a quarter for scheduling noise.
func TestShardedInvocationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	for _, c := range []struct {
		shards, groups int
		measured       float64
		budget         float64
	}{
		{shards: 1, groups: 8, measured: 11.5, budget: 14},
		{shards: 2, groups: 8, measured: 12.5, budget: 16},
		{shards: 4, groups: 8, measured: 14.5, budget: 18},
		{shards: 4, groups: 1, measured: 16, budget: 20}, // one group rides one of four rings
	} {
		t.Run(fmt.Sprintf("R%d_G%d", c.shards, c.groups), func(t *testing.T) {
			w := ShardedWorkload{Shards: c.shards, Groups: c.groups, Replicas: 3, Clients: 2, PerClient: 50}
			d, err := newShardedDomain(w)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Stop()
			gids, err := createShardedGroups(d, w)
			if err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := driveSharded(d, gids, w.Clients, w.PerClient); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			perOp := float64(m1.Mallocs-m0.Mallocs) / float64(w.Groups*w.Clients*w.PerClient)
			t.Logf("%.1f allocs per invocation (measured %.1f when set, budget %.0f)", perOp, c.measured, c.budget)
			if perOp > c.budget {
				t.Fatalf("%.1f allocs per invocation, budget %.0f", perOp, c.budget)
			}
		})
	}
}
