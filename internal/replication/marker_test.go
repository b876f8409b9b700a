package replication

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/orb"
	"repro/internal/wal"
)

// ledger is an Updatable test servant: a balance, an operation count and
// one history byte per add. A write's postimage is its new balance, count
// and history byte; a read's postimage is empty (it changed nothing).
type ledger struct {
	mu        sync.Mutex
	balance   int64
	ops       int64
	hist      []byte
	last      []byte // postimage of the most recent operation
	failApply int    // ApplyUpdate calls still to fail
}

func (l *ledger) RepoID() string { return "IDL:repro/Ledger:1.0" }

func (l *ledger) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch inv.Operation {
	case "add":
		x := inv.Args[0].AsLong()
		l.ops++
		l.balance += int64(x)
		l.hist = append(l.hist, byte(x))
		l.last = binary.BigEndian.AppendUint64(l.last[:0], uint64(l.balance))
		l.last = binary.BigEndian.AppendUint64(l.last, uint64(l.ops))
		l.last = append(l.last, byte(x))
		return []cdr.Value{cdr.LongLong(l.balance)}, nil
	case "get":
		l.last = l.last[:0]
		return []cdr.Value{cdr.LongLong(l.balance)}, nil
	default:
		return nil, errors.New("bad op")
	}
}

func (l *ledger) LastUpdate() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte{}, l.last...), nil
}

func (l *ledger) ApplyUpdate(b []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failApply > 0 {
		l.failApply--
		return errors.New("ledger: injected apply failure")
	}
	if len(b) == 0 {
		return nil
	}
	if len(b) != 17 {
		return errors.New("ledger: bad postimage")
	}
	l.balance = int64(binary.BigEndian.Uint64(b))
	l.ops = int64(binary.BigEndian.Uint64(b[8:]))
	l.hist = append(l.hist, b[16])
	return nil
}

func (l *ledger) GetState() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := binary.BigEndian.AppendUint64(nil, uint64(l.balance))
	b = binary.BigEndian.AppendUint64(b, uint64(l.ops))
	return append(b, l.hist...), nil
}

func (l *ledger) SetState(b []byte) error {
	if len(b) < 16 {
		return errors.New("ledger: short state")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balance = int64(binary.BigEndian.Uint64(b))
	l.ops = int64(binary.BigEndian.Uint64(b[8:]))
	l.hist = append(l.hist[:0], b[16:]...)
	return nil
}

func (l *ledger) opCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ops
}

func (l *ledger) state(t *testing.T) []byte {
	t.Helper()
	b, err := l.GetState()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// hostLedgers places ledger replicas of a fresh group on the given nodes.
func (c *cluster) hostLedgers(def GroupDef, on ...string) map[string]*ledger {
	c.t.Helper()
	out := make(map[string]*ledger)
	for _, node := range on {
		l := &ledger{}
		out[node] = l
		if err := c.engines[node].HostReplica(def, l, true); err != nil {
			c.t.Fatal(err)
		}
	}
	c.waitMembers(def.ID, on)
	return out
}

// logsByNode gives every engine's replicas a log the test can inspect.
func logsByNode(logs map[string]*wal.MemLog, mu *sync.Mutex) func(*Config) {
	return func(cfg *Config) {
		node := cfg.Node
		cfg.LogFactory = func(GroupDef) wal.Log {
			l := &wal.MemLog{}
			mu.Lock()
			logs[node] = l
			mu.Unlock()
			return l
		}
	}
}

// waitSettled waits until every node reports the same lastExec for gid and
// returns it.
func (c *cluster) waitSettled(gid uint64, on ...string) uint64 {
	c.t.Helper()
	var last uint64
	waitFor(c.t, 5*time.Second, "members settled", func() bool {
		var seen []uint64
		for _, node := range on {
			st, ok := c.engines[node].GroupStatus(gid)
			if !ok || st.Syncing {
				return false
			}
			seen = append(seen, st.LastExec)
		}
		for _, v := range seen[1:] {
			if v != seen[0] {
				return false
			}
		}
		last = seen[0]
		return true
	})
	return last
}

func totalStats(c *cluster, on ...string) Stats {
	var s Stats
	for _, node := range on {
		st := c.engines[node].Stats()
		s.Checkpoints += st.Checkpoints
		s.StateTransfers += st.StateTransfers
	}
	return s
}

func invokeAdds(t *testing.T, p *Proxy, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := p.Invoke("add", cdr.Long(int32(i))); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
}

// Warm backups checkpoint themselves: after N markers every member's log
// is anchored at a snapshot it took of its own state, labelled with its
// own lastExec, and byte-equal to the primary's GetState at that MsgID;
// no state crossed the ring. The promoted backup then serves from that
// state.
func TestMarkerPromotedBackupMatchesPrimary(t *testing.T) {
	logs := map[string]*wal.MemLog{}
	var mu sync.Mutex
	c := newCluster(t, 4, logsByNode(logs, &mu))
	def := GroupDef{ID: 30, Name: "marker", Style: WarmPassive, CheckpointEvery: 4}
	members := []string{"n1", "n2", "n3"}
	ls := c.hostLedgers(def, members...)
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 30})

	const markers = 5
	invokeAdds(t, proxy, 1, markers*def.CheckpointEvery)
	last := c.waitSettled(30, members...)
	want := ls["n1"].state(t)
	s := totalStats(c, members...)
	if s.Checkpoints < markers || s.StateTransfers != 0 {
		t.Fatalf("checkpoints %d, state transfers %d; want ≥ %d markers and no transfer", s.Checkpoints, s.StateTransfers, markers)
	}
	waitFor(t, 5*time.Second, "every log anchored at the last marker", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, node := range members {
			cp, updates, ok, err := logs[node].Recover()
			if err != nil || !ok || cp.MsgID != last || len(updates) != 0 {
				return false
			}
		}
		return true
	})
	mu.Lock()
	for _, node := range members {
		cp, _, _, _ := logs[node].Recover()
		if !bytes.Equal(cp.Data, want) {
			t.Errorf("%s: checkpoint at msg %d holds %x, the primary's state there is %x", node, cp.MsgID, cp.Data, want)
		}
	}
	mu.Unlock()

	c.fabric.CrashNode("n1")
	c.engines["n1"].Stop()
	c.rings["n1"].Stop()
	waitFor(t, 5*time.Second, "n2 promoted", func() bool {
		st, ok := c.engines["n2"].GroupStatus(30)
		return ok && st.Primary == "n2"
	})
	if got := ls["n2"].state(t); !bytes.Equal(got, want) {
		t.Fatalf("promoted backup holds %x, want the primary's %x", got, want)
	}
	out, err := proxy.Invoke("add", cdr.Long(100))
	if err != nil {
		t.Fatal(err)
	}
	sum := int64(100)
	for i := 1; i <= markers*def.CheckpointEvery; i++ {
		sum += int64(i)
	}
	if out[0].AsLongLong() != sum {
		t.Fatalf("balance after failover %d, want %d", out[0].AsLongLong(), sum)
	}
}

// A backup that fails to apply one postimage applies no later delta,
// requests a state transfer at the next marker, and converges.
func TestMarkerMissedReplyRequestsState(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 31, Name: "missed", Style: WarmPassive, CheckpointEvery: 4}
	members := []string{"n1", "n2", "n3"}
	ls := c.hostLedgers(def, members...)
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 31})

	invokeAdds(t, proxy, 1, 4)
	c.waitSettled(31, members...)
	ls["n3"].mu.Lock()
	ls["n3"].failApply = 1
	ls["n3"].mu.Unlock()
	before := c.engines["n3"].Stats().StateTransfers

	invokeAdds(t, proxy, 5, 2) // n3 misses add(5), then holds add(6) back
	waitFor(t, 5*time.Second, "n2 applied both adds", func() bool { return ls["n2"].opCount() == 6 })
	if st, _ := c.engines["n3"].GroupStatus(31); st.Syncing {
		t.Fatal("n3 requested state before the marker")
	}
	if ops := ls["n3"].opCount(); ops != 4 || c.engines["n3"].Stats().StateTransfers != before {
		t.Fatalf("n3 at %d ops after a missed apply, want its last good state (4 ops) until the marker", ops)
	}

	invokeAdds(t, proxy, 7, 2) // the marker follows add(8)
	last := c.waitSettled(31, members...)
	if got := c.engines["n3"].Stats().StateTransfers; got != before+1 {
		t.Fatalf("n3 state transfers %d → %d, want one", before, got)
	}
	want := ls["n1"].state(t)
	for _, node := range []string{"n2", "n3"} {
		if got := ls[node].state(t); !bytes.Equal(got, want) {
			t.Errorf("%s holds %x at msg %d, the primary %x", node, got, last, want)
		}
	}
}

// A checkpoint window that ends in a read moves no state: the read's empty
// postimage advances every backup's lastExec, so the marker finds them all
// current.
func TestMarkerAfterReadNoStateTransfer(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 32, Name: "reads", Style: WarmPassive, CheckpointEvery: 4}
	members := []string{"n1", "n2", "n3"}
	c.hostLedgers(def, members...)
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 32})
	before := totalStats(c, members...)

	for round := 0; round < 3; round++ {
		invokeAdds(t, proxy, 1, 3)
		if _, err := proxy.Invoke("get"); err != nil {
			t.Fatal(err)
		}
	}
	c.waitSettled(32, members...)
	s := totalStats(c, members...)
	if s.Checkpoints-before.Checkpoints < 3 {
		t.Fatalf("%d checkpoints, want 3 markers", s.Checkpoints-before.Checkpoints)
	}
	if s.StateTransfers != before.StateTransfers {
		t.Fatalf("state transfers %d → %d, want none", before.StateTransfers, s.StateTransfers)
	}
}

// A syncing joiner ignores markers — it neither adopts from one nor logs a
// snapshot of its unsynced state — and syncs from its join checkpoint.
func TestMarkerIgnoredWhileSyncing(t *testing.T) {
	c := newCluster(t, 1)
	def := GroupDef{ID: 33, Name: "joiner", Style: WarmPassive}
	def.fill()
	log := &wal.MemLog{}
	l := &ledger{}
	r := newReplica(c.engines["n1"], def, l, true, log)

	r.onCheckpoint(&msgCheckpoint{GroupID: 33, Reason: ckptMarker, UpToMsgID: 40})
	if st := r.status(); !st.Syncing || st.LastExec != 0 || log.Len() != 0 || l.ops != 0 {
		t.Fatalf("after a marker: syncing %v, lastExec %d, %d log records, %d ops; want untouched", st.Syncing, st.LastExec, log.Len(), l.ops)
	}

	src := &ledger{balance: 9, ops: 2, hist: []byte{4, 5}}
	state := src.state(t)
	r.onCheckpoint(&msgCheckpoint{GroupID: 33, Reason: ckptJoin, UpToMsgID: 55, State: state})
	if st := r.status(); st.Syncing || st.LastExec != 55 {
		t.Fatalf("after the join checkpoint: syncing %v, lastExec %d; want synced at 55", st.Syncing, st.LastExec)
	}
	if got := l.state(t); !bytes.Equal(got, state) {
		t.Fatalf("joiner holds %x, want the join state %x", got, state)
	}
	if cp, _, ok, _ := log.Recover(); !ok || cp.MsgID != 55 || !bytes.Equal(cp.Data, state) {
		t.Fatalf("joiner's log checkpoint %d %x (ok %v), want the join state at 55", cp.MsgID, cp.Data, ok)
	}
}

// A member restarted from its own WAL after several markers recovers the
// group's state: the log holds its last self-taken snapshot plus the
// updates after it.
func TestMarkerRestartFromLocalWAL(t *testing.T) {
	logs := map[string]*wal.MemLog{}
	var mu sync.Mutex
	c := newCluster(t, 4, logsByNode(logs, &mu))
	def := GroupDef{ID: 34, Name: "restart", Style: WarmPassive, CheckpointEvery: 4}
	members := []string{"n1", "n2", "n3"}
	ls := c.hostLedgers(def, members...)
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 34})

	invokeAdds(t, proxy, 1, 14) // three markers, then two updates
	last := c.waitSettled(34, members...)
	want := ls["n1"].state(t)
	c.fabric.CrashNode("n3")
	c.engines["n3"].Stop()
	c.rings["n3"].Stop()

	mu.Lock()
	log := logs["n3"]
	mu.Unlock()
	cp, updates, ok, err := log.Recover()
	if err != nil || !ok || cp.MsgID == 0 || len(updates) != 2 {
		t.Fatalf("n3's log: checkpoint at %d (ok %v, err %v) + %d updates; want a marker snapshot + 2", cp.MsgID, ok, err, len(updates))
	}
	solo := newCluster(t, 1)
	fresh := &ledger{}
	if err := solo.engines["n1"].HostReplicaFromLog(def, fresh, log); err != nil {
		t.Fatal(err)
	}
	if got := fresh.state(t); !bytes.Equal(got, want) {
		t.Fatalf("recovered %x, want the group's %x", got, want)
	}
	if st, _ := solo.engines["n1"].GroupStatus(34); st.LastExec != last {
		t.Fatalf("recovered lastExec %d, want %d", st.LastExec, last)
	}
}
