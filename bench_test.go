package repro

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/ior"
	"repro/internal/netsim"
	"repro/internal/totem"
)

// --- Experiment benchmarks: one per evaluation table/figure ------------------
//
// Each Benchmark below regenerates one experiment from DESIGN.md's index at
// reduced scale (use cmd/ftbench for full-scale runs and EXPERIMENTS.md for
// recorded results). The table is printed via b.Log under -v.

func runExperiment(b *testing.B, fn func(bench.Scale) (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table, err := fn(bench.Scale{Invocations: 20, Warmup: 5})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb stringsBuilder
			table.Fprint(&sb)
			b.Log(sb.String())
		}
	}
}

// stringsBuilder avoids importing strings just for the builder.
type stringsBuilder struct{ buf []byte }

func (s *stringsBuilder) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}
func (s *stringsBuilder) String() string { return string(s.buf) }

func BenchmarkE1LatencyByStyle(b *testing.B)    { runExperiment(b, bench.E1LatencyByStyle) }
func BenchmarkE2ReplicationDegree(b *testing.B) { runExperiment(b, bench.E2ReplicationDegree) }
func BenchmarkE3Failover(b *testing.B)          { runExperiment(b, bench.E3Failover) }
func BenchmarkE4StateTransfer(b *testing.B)     { runExperiment(b, bench.E4StateTransfer) }
func BenchmarkE5DuplicateSuppression(b *testing.B) {
	runExperiment(b, bench.E5DuplicateSuppression)
}
func BenchmarkE6CheckpointInterval(b *testing.B) { runExperiment(b, bench.E6CheckpointInterval) }
func BenchmarkE7PartitionRemerge(b *testing.B)   { runExperiment(b, bench.E7PartitionRemerge) }
func BenchmarkE8Approaches(b *testing.B)         { runExperiment(b, bench.E8Approaches) }
func BenchmarkT1Totem(b *testing.B)              { runExperiment(b, bench.T1Totem) }

// --- Invocation micro-benchmarks ---------------------------------------------

// benchDomain builds a 3-server+client domain with one echo group.
func benchDomain(b *testing.B, style Style, replicas int) (*Domain, uint64, *Proxy) {
	b.Helper()
	d, err := NewDomain(Options{
		Nodes:         []string{"n1", "n2", "n3", "client"},
		Net:           netsim.Config{Seed: 7},
		Heartbeat:     3 * time.Millisecond,
		CallTimeout:   30 * time.Second,
		RetryInterval: 10 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Stop)
	if err := d.WaitReady(10 * time.Second); err != nil {
		b.Fatal(err)
	}
	if err := d.RegisterFactory(bench.EchoType,
		func() Servant { return bench.NewEchoServant() }, "n1", "n2", "n3"); err != nil {
		b.Fatal(err)
	}
	_, gid, err := d.Create("echo", bench.EchoType, &Properties{
		ReplicationStyle:      style,
		InitialNumberReplicas: replicas,
		MembershipStyle:       MembershipApplication,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.WaitGroupReady(gid, replicas, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	proxy, err := d.Proxy("client", gid)
	if err != nil {
		b.Fatal(err)
	}
	return d, gid, proxy
}

func benchInvoke(b *testing.B, style Style, replicas int) {
	_, _, proxy := benchDomain(b, style, replicas)
	arg := OctetSeq(make([]byte, 256))
	if _, err := proxy.Invoke("echo", arg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxy.Invoke("echo", arg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInvokeActive3(b *testing.B)      { benchInvoke(b, Active, 3) }
func BenchmarkInvokeWarmPassive3(b *testing.B) { benchInvoke(b, WarmPassive, 3) }
func BenchmarkInvokeColdPassive3(b *testing.B) { benchInvoke(b, ColdPassive, 3) }
func BenchmarkInvokeSingleReplica(b *testing.B) {
	benchInvoke(b, Active, 1)
}

func BenchmarkInvokeVoting3(b *testing.B) {
	d, gid, _ := benchDomain(b, ActiveWithVoting, 3)
	proxy, err := d.Proxy("client", gid, WithVotes(3))
	if err != nil {
		b.Fatal(err)
	}
	arg := OctetSeq(make([]byte, 256))
	if _, err := proxy.Invoke("echo", arg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxy.Invoke("echo", arg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ----------------------------------------------

func BenchmarkOrderedMulticast(b *testing.B) {
	fabric := netsim.NewFabric(netsim.Config{})
	nodes := []string{"a", "b", "c"}
	for _, n := range nodes {
		fabric.AddNode(n)
	}
	var rings []*totem.Ring
	for _, n := range nodes {
		r, err := totem.NewRing(fabric, totem.Config{
			Node: n, Universe: nodes, Port: 4000,
			HeartbeatInterval: 3 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		r.Start()
		rings = append(rings, r)
	}
	b.Cleanup(func() {
		for _, r := range rings {
			r.Stop()
		}
	})
	sender := rings[0]
	sender.JoinGroup("g")
	deliver := make(chan struct{}, 1024)
	go signalDeliveries(sender, deliver)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, m := sender.CurrentRing(); len(m) == 3 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("ring never formed")
		}
		time.Sleep(time.Millisecond)
	}
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Multicast("g", payload); err != nil {
			b.Fatal(err)
		}
		<-deliver
	}
}

func BenchmarkSequencerMulticast(b *testing.B) {
	fabric := netsim.NewFabric(netsim.Config{})
	nodes := []string{"a", "b", "c"}
	for _, n := range nodes {
		fabric.AddNode(n)
	}
	var seqs []*totem.Sequencer
	for _, n := range nodes {
		s, err := totem.NewSequencer(fabric, n, nodes, 5000)
		if err != nil {
			b.Fatal(err)
		}
		seqs = append(seqs, s)
	}
	b.Cleanup(func() {
		for _, s := range seqs {
			s.Stop()
		}
	})
	sender := seqs[2]
	deliver := make(chan struct{}, 1024)
	go signalDeliveries(sender, deliver)
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Multicast("g", payload); err != nil {
			b.Fatal(err)
		}
		<-deliver
	}
}

// deliveryStream is the consumer side of totem.Ring and totem.Sequencer.
type deliveryStream interface {
	Drain(prev []totem.Delivery) ([]totem.Delivery, bool)
	Ready() <-chan struct{}
}

// signalDeliveries sends on ch once per message delivery of s until s
// stops.
func signalDeliveries(s deliveryStream, ch chan<- struct{}) {
	var batch []totem.Delivery
	for {
		var closed bool
		batch, closed = s.Drain(batch)
		for i := range batch {
			if batch[i].Event == nil {
				ch <- struct{}{}
			}
		}
		if closed {
			return
		}
		if len(batch) == 0 {
			<-s.Ready()
		}
	}
}

// --- Codec micro-benchmarks ----------------------------------------------------

func BenchmarkCDRValueRoundTrip(b *testing.B) {
	vals := []cdr.Value{
		cdr.Str("operation"), cdr.Long(42), cdr.Double(3.14),
		cdr.OctetSeq(make([]byte, 256)),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := cdr.NewEncoder(cdr.BigEndian)
		cdr.EncodeValues(e, vals)
		d := cdr.NewDecoder(e.Bytes(), cdr.BigEndian)
		if _, err := cdr.DecodeValues(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGIOPRequestRoundTrip(b *testing.B) {
	req := &giop.Request{
		RequestID:     7,
		ResponseFlags: giop.ResponseExpected,
		ObjectKey:     []byte("og/42"),
		Operation:     "deposit",
		Contexts: []giop.ServiceContext{
			{ID: giop.SvcFTRequest, Data: giop.FTRequest{ClientID: "c1", RetentionID: 9}.Encode()},
		},
		Body: make([]byte, 256),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := giop.Unmarshal(giop.Marshal(req)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIOGRMarshal(b *testing.B) {
	ref := ior.NewGroup("IDL:repro/Echo:1.0",
		ior.FTGroup{FTDomainID: "d", GroupID: 42, Version: 7},
		[]ior.GroupMember{
			{Host: "n1", Port: 9000, ObjectKey: []byte("og/42"), Primary: true},
			{Host: "n2", Port: 9000, ObjectKey: []byte("og/42")},
			{Host: "n3", Port: 9000, ObjectKey: []byte("og/42")},
		})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ior.Unmarshal(ior.Marshal(ref)); err != nil {
			b.Fatal(err)
		}
	}
}
