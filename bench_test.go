package repro

import (
	"sync"
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

// BenchmarkPipelinedActive3 is the E2-style headline: 8 concurrent
// clients invoking a 3-replica ACTIVE group through one proxy. b.N is the
// total number of invocations across all clients, so ns/op is the
// pipelined per-invocation cost (the inverse of E2's ops/s column).
func BenchmarkPipelinedActive3(b *testing.B) { benchPipelined(b, Active, 3, 8) }

// BenchmarkPipelinedActive1 isolates the protocol floor: one replica,
// same pipelining.
func BenchmarkPipelinedActive1(b *testing.B) { benchPipelined(b, Active, 1, 8) }

func benchPipelined(b *testing.B, style Style, replicas, clients int) {
	_, _, proxy := benchDomain(b, style, replicas)
	arg := OctetSeq(make([]byte, 256))
	if _, err := proxy.Invoke("echo", arg); err != nil {
		b.Fatal(err)
	}
	work := make(chan struct{})
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := false
			for range work {
				if failed {
					continue // keep draining so the feeder never blocks
				}
				if _, err := proxy.Invoke("echo", arg); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed = true
				}
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()
	b.StopTimer()
	if firstErr != nil {
		b.Fatal(firstErr)
	}
}

// --- Sharded-transport benchmarks --------------------------------------------
//
// The benchmark-scale version of experiment E2′ (internal/bench/e2prime.go):
// aggregate throughput of independent ACTIVE/3 groups over R transport
// rings. ns/op is the wall clock of one full workload run including domain
// setup; the ops/s metric times only the drive phase and is directly
// comparable across shard counts.

func benchSharded(b *testing.B, shards, groups int) {
	// PerClient is sized so the drive phase dominates domain setup;
	// shorter runs are startup-transient noise.
	w := bench.ShardedWorkload{
		Shards: shards, Groups: groups, Replicas: 3,
		Clients: 2, PerClient: 50,
	}
	var agg float64
	for i := 0; i < b.N; i++ {
		thr, err := bench.RunSharded(w)
		if err != nil {
			b.Fatal(err)
		}
		agg += thr
	}
	b.ReportMetric(agg/float64(b.N), "ops/s")
}

func BenchmarkShardedAggregateR1(b *testing.B) { benchSharded(b, 1, 8) }
func BenchmarkShardedAggregateR2(b *testing.B) { benchSharded(b, 2, 8) }
func BenchmarkShardedAggregateR4(b *testing.B) { benchSharded(b, 4, 8) }

// BenchmarkShardedSingleGroupR4 is the control row: one group rides one
// ring no matter how many exist (per-group total order is the invariant),
// so this must stay within noise of a single-ring run.
func BenchmarkShardedSingleGroupR4(b *testing.B) { benchSharded(b, 4, 1) }

// --- Substrate micro-benchmarks ----------------------------------------------

func BenchmarkOrderedMulticast(b *testing.B) {
	fabric := netsim.NewFabric(netsim.Config{})
	nodes := []string{"a", "b", "c"}
	for _, n := range nodes {
		fabric.AddNode(n)
	}
	deliver := make(chan struct{}, 1024)
	var rings []*totem.Ring
	for _, n := range nodes {
		r, err := totem.NewRing(fabric, totem.Config{
			Node: n, Universe: nodes, Port: 4000,
			HeartbeatInterval: 3 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		var c totem.Consumer
		if len(rings) == 0 { // the sender
			c.Deliver = signalMessages(deliver)
		}
		r.Start(c)
		rings = append(rings, r)
	}
	b.Cleanup(func() {
		for _, r := range rings {
			r.Stop()
		}
	})
	sender := rings[0]
	sender.JoinGroup("g")
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
	deliver := make(chan struct{}, 1024)
	var seqs []*totem.Sequencer
	for i, n := range nodes {
		var fn func(totem.Delivery)
		if i == 2 { // the sender
			fn = signalMessages(deliver)
		}
		s, err := totem.NewSequencer(fabric, n, nodes, 5000, fn)
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
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Multicast("g", payload); err != nil {
			b.Fatal(err)
		}
		<-deliver
	}
}

// signalMessages returns a consumer that sends on ch once per message
// delivery; ch's buffer must hold every delivery not yet received.
func signalMessages(ch chan<- struct{}) func(totem.Delivery) {
	return func(d totem.Delivery) {
		if d.Event == nil {
			ch <- struct{}{}
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

// BenchmarkGIOPMarshal measures the encode side of the GIOP layer alone
// (the path every IIOP request and reply takes) for a 256-byte body with
// an FT_REQUEST context. giop's TestMarshalAllocs pins its allocations.
func BenchmarkGIOPMarshal(b *testing.B) {
	benchMarshal(b, &giop.Request{
		RequestID:     7,
		ResponseFlags: giop.ResponseExpected,
		ObjectKey:     []byte("og/42"),
		Operation:     "deposit",
		Contexts: []giop.ServiceContext{
			{ID: giop.SvcFTRequest, Data: giop.FTRequest{ClientID: "c1", RetentionID: 9}.Encode()},
		},
		Body: make([]byte, 256),
	})
}

// BenchmarkGIOPMarshalLarge is the same with a 16 KiB body and no
// context, where a redundant full-frame copy would dominate.
func BenchmarkGIOPMarshalLarge(b *testing.B) {
	benchMarshal(b, &giop.Request{
		RequestID:     7,
		ResponseFlags: giop.ResponseExpected,
		ObjectKey:     []byte("og/42"),
		Operation:     "deposit",
		Body:          make([]byte, 16<<10),
	})
}

func benchMarshal(b *testing.B, req *giop.Request) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(giop.Marshal(req)) == 0 {
			b.Fatal("empty frame")
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
