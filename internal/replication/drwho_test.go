package replication

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/drstore"
	"repro/internal/wal"
)

// shipLog records, per node, the MsgIDs each engine shipped to the DR
// store: update records (AppendUpdate) and checkpoints (PutCheckpoint's
// UpToMsgID).
type shipLog struct {
	mu      sync.Mutex
	updates map[string][]uint64
	ckpts   map[string][]uint64
}

func newShipLog() *shipLog {
	return &shipLog{updates: make(map[string][]uint64), ckpts: make(map[string][]uint64)}
}

// recordingStore is one node's DR store: it records each shipment under
// the node's name, then passes it on to a shared store.
type recordingStore struct {
	drstore.Store
	node string
	log  *shipLog
}

func (s *recordingStore) AppendUpdate(gid uint64, rec wal.Record) error {
	s.log.mu.Lock()
	s.log.updates[s.node] = append(s.log.updates[s.node], rec.MsgID)
	s.log.mu.Unlock()
	return s.Store.AppendUpdate(gid, rec)
}

// PutCheckpoint records every checkpoint. Hosting a group sends none: no
// member asks for state, so nothing is shipped before the first write.
func (s *recordingStore) PutCheckpoint(gid uint64, cp drstore.Checkpoint) error {
	s.log.mu.Lock()
	s.log.ckpts[s.node] = append(s.log.ckpts[s.node], cp.UpToMsgID)
	s.log.mu.Unlock()
	return s.Store.PutCheckpoint(gid, cp)
}

func (s *shipLog) snapshot() (updates, ckpts map[string][]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	copyOf := func(m map[string][]uint64) map[string][]uint64 {
		out := make(map[string][]uint64, len(m))
		for k, v := range m {
			out[k] = append([]uint64(nil), v...)
		}
		return out
	}
	return copyOf(s.updates), copyOf(s.ckpts)
}

// TestDRShippers pins who ships what to the DR store for each style: three
// members, one client on a fourth node, and exactly one checkpoint interval
// of writes (so the interval's checkpoint is the last thing ordered and
// covers every write). The senior member n1 ships every operation's
// update record and the interval's checkpoint; under ACTIVE and
// ACTIVE_WITH_VOTING every member also ships the ordered invocations
// (any of them may be the replier); STATELESS ships nothing.
func TestDRShippers(t *testing.T) {
	const every = 4
	members := []string{"n1", "n2", "n3"}
	for i, style := range []Style{Stateless, Active, ActiveWithVoting, WarmPassive, ColdPassive, LeaderFollower} {
		t.Run(style.String(), func(t *testing.T) {
			ships := newShipLog()
			shared := drstore.NewMemStore()
			c := newCluster(t, 4, func(cfg *Config) {
				cfg.DR = &recordingStore{Store: shared, node: cfg.Node, log: ships}
			})
			gid := uint64(60 + i)
			c.host(GroupDef{ID: gid, Name: "ship", Style: style, CheckpointEvery: every}, members...)
			proxy := c.engines["n4"].Proxy(GroupRef{ID: gid})
			for k := 1; k <= every; k++ {
				if _, err := proxy.Invoke("add", cdr.Long(int32(k))); err != nil {
					t.Fatal(err)
				}
			}

			wantShippers := map[Style][]string{
				Active:           members,
				ActiveWithVoting: members,
				WarmPassive:      {"n1"},
				ColdPassive:      {"n1"},
				LeaderFollower:   {"n1"},
			}[style]
			wantCkpt := style != Stateless
			waitFor(t, 5*time.Second, "every shipment", func() bool {
				updates, ckpts := ships.snapshot()
				for _, n := range wantShippers {
					if len(updates[n]) < every {
						return false
					}
				}
				return !wantCkpt || len(ckpts["n1"]) > 0
			})
			// Two fences from n1: once n1 has handled the first, what it
			// multicast for the last write (a checkpoint or marker) is
			// queued on its ring ahead of the second, so once every member
			// has handled the second, every member has handled everything
			// the writes set off.
			c.fence(gid, "n1", members)
			c.fence(gid, "n1", members)
			last, ok := c.engines["n1"].GroupStatus(gid)
			if !ok {
				t.Fatal("n1 does not host the group")
			}

			updates, ckpts := ships.snapshot()
			ids := updates["n1"]
			if style != Stateless {
				if len(ids) != every {
					t.Fatalf("n1 shipped updates %v, want %d", ids, every)
				}
				for k := 1; k < len(ids); k++ {
					if ids[k] <= ids[k-1] {
						t.Fatalf("n1 shipped updates %v out of order", ids)
					}
				}
				if ids[every-1] != last.LastExec {
					t.Fatalf("n1 shipped updates %v, its last execution is %d", ids, last.LastExec)
				}
			}
			wantUpdates := make(map[string][]uint64)
			for _, n := range wantShippers {
				wantUpdates[n] = ids
			}
			if !reflect.DeepEqual(updates, wantUpdates) {
				t.Errorf("updates shipped %s, want %s", fmt.Sprint(updates), fmt.Sprint(wantUpdates))
			}
			wantCkpts := map[string][]uint64{}
			if wantCkpt {
				wantCkpts["n1"] = []uint64{last.LastExec}
			}
			if !reflect.DeepEqual(ckpts, wantCkpts) {
				t.Errorf("checkpoints shipped %v, want %v", ckpts, wantCkpts)
			}
		})
	}
}

// fence multicasts, from node's ring, an invocation its client's low-water
// mark already covers, which every member suppresses without executing,
// answering, logging or shipping it, and waits until every member's
// executor has handled it: by then each has handled everything ordered
// before it.
func (c *cluster) fence(gid uint64, node string, members []string) {
	c.t.Helper()
	before := make(map[string]uint64, len(members))
	for _, n := range members {
		before[n] = c.engines[n].Stats().DupInvocations
	}
	payload, _ := encodeInvocation(&msgInvocation{
		GroupID:   gid,
		Key:       opKey{ClientID: rootClientPrefix + "fence", OpSeq: 1},
		Operation: "fence",
		Done:      1,
	}, nil)
	if err := c.rings[node].Multicast(namesOf(gid).inv, payload); err != nil {
		c.t.Fatal(err)
	}
	waitFor(c.t, 5*time.Second, "every member past the fence", func() bool {
		for _, n := range members {
			if c.engines[n].Stats().DupInvocations == before[n] {
				return false
			}
		}
		return true
	})
}
