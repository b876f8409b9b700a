package repro_test

import (
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/cdr"
)

// flag is a tiny servant exercised through the public facade only.
type flag struct {
	mu  sync.Mutex
	set bool
}

func (f *flag) RepoID() string { return "IDL:api/Flag:1.0" }

func (f *flag) Dispatch(inv *repro.Invocation) ([]repro.Value, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch inv.Operation {
	case "raise":
		f.set = true
		return []repro.Value{repro.Bool(f.set)}, nil
	case "state":
		return []repro.Value{repro.Bool(f.set)}, nil
	}
	return nil, &repro.UserException{Name: "IDL:api/Bad:1.0"}
}

func (f *flag) GetState() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteBool(f.set)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

func (f *flag) SetState(b []byte) error {
	d := cdr.NewDecoder(b, cdr.BigEndian)
	v, err := d.ReadBool()
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.set = v
	f.mu.Unlock()
	return nil
}

// TestPublicAPI drives the whole stack through the root package the way a
// downstream user would: domain, factory, group, proxy, crash.
func TestPublicAPI(t *testing.T) {
	d, err := repro.NewDomain(repro.Options{
		Nodes:     []string{"x", "y", "z"},
		Heartbeat: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterFactory("IDL:api/Flag:1.0", func() repro.Servant { return &flag{} }); err != nil {
		t.Fatal(err)
	}
	ref, gid, err := d.Create("flag", "IDL:api/Flag:1.0", &repro.Properties{
		ReplicationStyle:      repro.Active,
		InitialNumberReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WaitGroupReady(gid, 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Stringified IOGR round trip through the public helpers.
	s := repro.RefToString(ref)
	back, err := repro.RefFromString(s)
	if err != nil || !back.IsGroup() {
		t.Fatalf("IOGR string round trip: %v", err)
	}

	proxy, err := d.Proxy("z", gid)
	if err != nil {
		t.Fatal(err)
	}
	out, err := proxy.Invoke("raise")
	if err != nil || !out[0].AsBool() {
		t.Fatalf("raise: %v %v", out, err)
	}

	members, _ := d.RM.Members(gid)
	d.CrashNode(members[0])
	out, err = proxy.Invoke("state")
	if err != nil || !out[0].AsBool() {
		t.Fatalf("post-crash state: %v %v", out, err)
	}
}

// TestLeaderFollowerFacade creates a LEADER_FOLLOWER group through the
// facade: the write goes to the leader, the read-only operation may be
// served by any replica holding a lease, and both see the write.
func TestLeaderFollowerFacade(t *testing.T) {
	d, err := repro.NewDomain(repro.Options{
		Nodes:     []string{"x", "y", "z"},
		Heartbeat: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterFactory("IDL:api/Flag:1.0", func() repro.Servant { return &flag{} }); err != nil {
		t.Fatal(err)
	}
	_, gid, err := d.Create("flag", "IDL:api/Flag:1.0", &repro.Properties{
		ReplicationStyle:      repro.LeaderFollower,
		InitialNumberReplicas: 3,
		ReadOnlyOps:           []string{"state"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WaitGroupReady(gid, 3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	proxy, err := d.Proxy("z", gid)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := proxy.Invoke("raise"); err != nil || !out[0].AsBool() {
		t.Fatalf("raise: %v %v", out, err)
	}
	if out, err := proxy.Invoke("state"); err != nil || !out[0].AsBool() {
		t.Fatalf("state after raise: %v %v", out, err)
	}
}

// TestMethodServantFacade checks the method-table servant helper exported
// by the facade.
func TestMethodServantFacade(t *testing.T) {
	s := repro.NewMethodServant("IDL:api/M:1.0").
		Define("twice", func(inv *repro.Invocation) ([]repro.Value, error) {
			return []repro.Value{repro.Long(inv.Args[0].AsLong() * 2)}, nil
		})
	out, err := s.Dispatch(&repro.Invocation{Operation: "twice", Args: []repro.Value{repro.Long(21)}})
	if err != nil || out[0].AsLong() != 42 {
		t.Fatalf("dispatch: %v %v", out, err)
	}
	if s.RepoID() != "IDL:api/M:1.0" {
		t.Error("RepoID")
	}
}

// TestValueConstructors pins the re-exported value helpers.
func TestValueConstructors(t *testing.T) {
	checks := []struct {
		v    repro.Value
		kind cdr.Kind
	}{
		{repro.Void(), cdr.KindVoid},
		{repro.Bool(true), cdr.KindBool},
		{repro.Octet(1), cdr.KindOctet},
		{repro.Short(-1), cdr.KindShort},
		{repro.UShort(1), cdr.KindUShort},
		{repro.Long(-1), cdr.KindLong},
		{repro.ULong(1), cdr.KindULong},
		{repro.LongLong(-1), cdr.KindLongLong},
		{repro.ULongLong(1), cdr.KindULongLong},
		{repro.Float(1), cdr.KindFloat},
		{repro.Double(1), cdr.KindDouble},
		{repro.Str("s"), cdr.KindString},
		{repro.OctetSeq(nil), cdr.KindOctetSeq},
		{repro.Seq(), cdr.KindSeq},
	}
	for _, c := range checks {
		if c.v.Kind != c.kind {
			t.Errorf("constructor for %v produced kind %v", c.kind, c.v.Kind)
		}
	}
}
