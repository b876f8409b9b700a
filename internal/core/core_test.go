package core_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/ftcorba"
	"repro/internal/orb"
	"repro/internal/replication"
)

type slot struct {
	mu sync.Mutex
	v  int64
}

func (s *slot) RepoID() string { return "IDL:repro/Slot:1.0" }

func (s *slot) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if inv.Operation == "set" {
		s.v = int64(inv.Args[0].AsLong())
	}
	return []cdr.Value{cdr.LongLong(s.v)}, nil
}

func (s *slot) GetState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteLongLong(s.v)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

func (s *slot) SetState(b []byte) error {
	d := cdr.NewDecoder(b, cdr.BigEndian)
	v, err := d.ReadLongLong()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.v = v
	s.mu.Unlock()
	return nil
}

func TestDomainLifecycle(t *testing.T) {
	d, err := core.NewDomain(core.Options{
		Nodes:     []string{"a", "b", "c"},
		Heartbeat: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := d.Nodes(); len(got) != 3 || got[0] != "a" {
		t.Fatalf("Nodes = %v", got)
	}
	if d.Node("a") == nil || d.Node("zz") != nil {
		t.Error("Node lookup broken")
	}

	if err := d.RegisterFactory("IDL:repro/Slot:1.0", func() orb.Servant { return &slot{} }); err != nil {
		t.Fatal(err)
	}
	_, gid, err := d.Create("slot", "IDL:repro/Slot:1.0", &ftcorba.Properties{
		ReplicationStyle:      replication.WarmPassive,
		InitialNumberReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WaitGroupReady(gid, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	p, err := d.Proxy("c", gid)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke("set", cdr.Long(11))
	if err != nil || out[0].AsLongLong() != 11 {
		t.Fatalf("set: %v %v", out, err)
	}

	if _, err := d.Proxy("zz", gid); !errors.Is(err, core.ErrUnknownClientNode) {
		t.Errorf("unknown client: %v", err)
	}

	// Crash + double stop are safe.
	d.CrashNode("b")
	d.CrashNode("b")
	d.Stop()
	d.Stop()
}

func TestDomainDefaults(t *testing.T) {
	d, err := core.NewDomain(core.Options{Heartbeat: 4 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if len(d.Nodes()) != 3 {
		t.Fatalf("default nodes = %v", d.Nodes())
	}
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// skewedSlot is a slot whose replica diverges: it stores 1000 more than
// it is told to.
type skewedSlot struct{ slot }

func (s *skewedSlot) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	if inv.Operation == "set" {
		inv.Args[0] = cdr.Long(inv.Args[0].AsLong() + 1000)
	}
	return s.slot.Dispatch(inv)
}

// A proxy the domain builds for an ACTIVE_WITH_VOTING group votes over
// the replicas the Replication Manager records, so one divergent replica
// is outvoted instead of answering whenever its reply lands first.
func TestDomainProxyVotesForVotingGroups(t *testing.T) {
	d, err := core.NewDomain(core.Options{
		Nodes:     []string{"a", "b", "c", "d"},
		Heartbeat: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	const typeID = "IDL:repro/Slot:1.0"
	if err := d.RegisterFactory(typeID, func() orb.Servant { return &slot{} }, "b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterFactory(typeID, func() orb.Servant { return &skewedSlot{} }, "a"); err != nil {
		t.Fatal(err)
	}
	_, gid, err := d.Create("voted", typeID, &ftcorba.Properties{
		ReplicationStyle:      replication.ActiveWithVoting,
		InitialNumberReplicas: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WaitGroupReady(gid, 3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	p, err := d.Proxy("d", gid)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(1); i <= 20; i++ {
		out, err := p.Invoke("set", cdr.Long(i))
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if got := out[0].AsLongLong(); got != int64(i) {
			t.Fatalf("set %d answered %d, want the majority's %d", i, got, i)
		}
	}
}

// A voting proxy the domain built keeps answering after one of the three
// replicas crashes: the two survivors' agreeing replies are a majority,
// so no call waits for the dead member until it times out.
func TestDomainVotingProxySurvivesCrash(t *testing.T) {
	d, err := core.NewDomain(core.Options{
		Nodes:       []string{"a", "b", "c", "d"},
		Heartbeat:   4 * time.Millisecond,
		CallTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	const typeID = "IDL:repro/Slot:1.0"
	if err := d.RegisterFactory(typeID, func() orb.Servant { return &slot{} }, "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	_, gid, err := d.Create("voted-crash", typeID, &ftcorba.Properties{
		ReplicationStyle:      replication.ActiveWithVoting,
		InitialNumberReplicas: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WaitGroupReady(gid, 3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	p, err := d.Proxy("d", gid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("set", cdr.Long(1)); err != nil {
		t.Fatalf("set before the crash: %v", err)
	}
	d.CrashNode("b")
	for i := int32(2); i <= 10; i++ {
		out, err := p.Invoke("set", cdr.Long(i))
		if err != nil {
			t.Fatalf("set %d after the crash: %v", i, err)
		}
		if got := out[0].AsLongLong(); got != int64(i) {
			t.Fatalf("set %d answered %d", i, got)
		}
	}
}
