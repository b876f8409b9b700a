package replication

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/nondet"
	"repro/internal/orb"
)

// The tests below pin what the invocation path may hand out twice: a
// replica's execution record and an answered call record. Decoded
// messages and dedup records are carved from chunks and never reused, so
// one kept past many later deliveries reads as it did.

// detServant returns, for every call, the ordered message id and what the
// deterministic context gives: one random draw and two steps of a named
// counter. It logs each result.
type detServant struct {
	mu  sync.Mutex
	log [][4]uint64
}

func (s *detServant) RepoID() string { return "IDL:repro/Det:1.0" }

func (s *detServant) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	got := [4]uint64{inv.Det.MsgID(), inv.Det.Uint64(), inv.Det.Seq("x"), inv.Det.Seq("x")}
	s.mu.Lock()
	s.log = append(s.log, got)
	s.mu.Unlock()
	return []cdr.Value{cdr.ULongLong(got[0]), cdr.ULongLong(got[1]), cdr.ULongLong(got[2]), cdr.ULongLong(got[3])}, nil
}

// freshDet is what a new deterministic context gives for the execution of
// msgID in gid.
func freshDet(gid, msgID uint64) [4]uint64 {
	d := nondet.NewContext(gid, msgID, epochAnchor)
	return [4]uint64{msgID, d.Uint64(), d.Seq("x"), d.Seq("x")}
}

// A replica reuses one execution record for every execution, so each must
// start from a whole-zeroed record: over 100 voted calls every replica
// draws what a fresh context would, and the three agree on every call.
func TestReusedExecutionStaysDeterministic(t *testing.T) {
	const gid, calls = 91, 100
	c := newCluster(t, 4)
	def := GroupDef{ID: gid, Name: "det", Style: ActiveWithVoting}
	servants := map[string]*detServant{}
	for _, node := range []string{"n1", "n2", "n3"} {
		servants[node] = &detServant{}
		if err := c.engines[node].HostReplica(def, servants[node], true); err != nil {
			t.Fatal(err)
		}
	}
	c.waitMembers(gid, []string{"n1", "n2", "n3"})
	proxy := c.engines["n4"].Proxy(GroupRef{ID: gid}, WithVotes(3))
	for i := 0; i < calls; i++ {
		out, err := proxy.Invoke("draw")
		if err != nil {
			t.Fatal(err)
		}
		got := [4]uint64{out[0].AsULongLong(), out[1].AsULongLong(), out[2].AsULongLong(), out[3].AsULongLong()}
		if want := freshDet(gid, got[0]); got != want {
			t.Fatalf("call %d: got %v, a fresh context gives %v", i, got, want)
		}
	}
	waitFor(t, 5*time.Second, "every replica executing every call", func() bool {
		for _, s := range servants {
			s.mu.Lock()
			n := len(s.log)
			s.mu.Unlock()
			if n < calls {
				return false
			}
		}
		return true
	})
	want := servants["n1"].log
	for node, s := range servants {
		s.mu.Lock()
		for i, got := range s.log {
			if fresh := freshDet(gid, got[0]); got != fresh {
				t.Errorf("%s execution %d: got %v, a fresh context gives %v", node, i, got, fresh)
			}
		}
		if !slices.Equal(s.log, want) {
			t.Errorf("%s's votes differ from n1's", node)
		}
		s.mu.Unlock()
	}
}

// sleeper answers "sleep" (Long µs, then any value) by sleeping that long
// and returning the value, and "hold" (any value) by waiting for gate to
// close first.
type sleeper struct{ gate chan struct{} }

func (s *sleeper) RepoID() string { return "IDL:repro/Sleeper:1.0" }

func (s *sleeper) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	switch inv.Operation {
	case "sleep":
		time.Sleep(time.Duration(inv.Args[0].AsLong()) * time.Microsecond)
		return []cdr.Value{inv.Args[1]}, nil
	case "hold":
		<-s.gate
		return []cdr.Value{inv.Args[0]}, nil
	}
	return nil, errors.New("bad op")
}

// assertFreeCallsClean fails if a free call record holds a reply or is
// closed: the next call to take it would return what it holds.
func assertFreeCallsClean(t *testing.T, free []*pendingCall) {
	t.Helper()
	for i, p := range free {
		select {
		case rep, ok := <-p.ch:
			t.Errorf("free call record %d holds a reply (%v, open %v)", i, rep, ok)
		default:
		}
	}
}

// A call that times out while its reply is on the way keeps its record:
// a late reply lands in a record nobody takes again, and every later call
// through the engine returns its own result.
func TestRecycledCallTakesOnlyItsOwnReply(t *testing.T) {
	const gid = 92
	c := newCluster(t, 2)
	def := GroupDef{ID: gid, Name: "sleeper", Style: Active}
	if err := c.engines["n1"].HostReplica(def, &sleeper{}, true); err != nil {
		t.Fatal(err)
	}
	c.waitMembers(gid, []string{"n1"})
	e := c.engines["n2"]
	slow := e.Proxy(GroupRef{ID: gid}, WithTimeout(4*time.Millisecond))
	fast := e.Proxy(GroupRef{ID: gid})

	// Fast calls run beside the slow ones, taking recycled records while
	// late replies are in flight.
	stop := make(chan struct{})
	fastErr := make(chan error, 1)
	go func() {
		defer close(fastErr)
		for j := int32(0); ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			out, err := fast.Invoke("sleep", cdr.Long(0), cdr.Long(1e6+j))
			if err != nil {
				fastErr <- err
				return
			}
			if got := out[0].AsLong(); got != 1e6+j {
				fastErr <- fmt.Errorf("fast call %d returned %d", 1e6+j, got)
				return
			}
		}
	}()
	// The servant sleeps from 0 to 6 ms, so replies land before, around
	// and after the 4 ms deadline.
	timeouts := 0
	for i := int32(0); i < 40; i++ {
		out, err := slow.Invoke("sleep", cdr.Long(i*150), cdr.Long(i))
		switch {
		case errors.Is(err, ErrCallTimeout):
			timeouts++
		case err != nil:
			t.Fatal(err)
		case out[0].AsLong() != i:
			t.Fatalf("slow call %d returned %d", i, out[0].AsLong())
		}
	}
	close(stop)
	if err := <-fastErr; err != nil {
		t.Fatal(err)
	}
	if timeouts == 0 {
		t.Fatal("no slow call timed out: the test exercised nothing")
	}
	for i := int32(0); i < 10; i++ {
		out, err := fast.Invoke("sleep", cdr.Long(0), cdr.Long(2e6+i))
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].AsLong(); got != 2e6+i {
			t.Fatalf("call %d after the timeouts returned %d", 2e6+i, got)
		}
	}
	e.mu.Lock()
	free := slices.Clone(e.freeCalls)
	e.mu.Unlock()
	assertFreeCallsClean(t, free)
}

// Stop closes the calls that are pending and leaves the recycled records
// on the free list alone.
func TestStopClosesOnlyPendingCalls(t *testing.T) {
	const gid = 93
	c := newCluster(t, 2)
	def := GroupDef{ID: gid, Name: "hold", Style: Active}
	gate := make(chan struct{})
	defer close(gate)
	if err := c.engines["n1"].HostReplica(def, &sleeper{gate: gate}, true); err != nil {
		t.Fatal(err)
	}
	c.waitMembers(gid, []string{"n1"})
	e := c.engines["n2"]
	proxy := e.Proxy(GroupRef{ID: gid})
	var wg sync.WaitGroup
	for g := int32(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int32(0); i < 8; i++ {
				if _, err := proxy.Invoke("sleep", cdr.Long(0), cdr.Long(g)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	held := make(chan error, 1)
	go func() {
		_, err := proxy.Invoke("hold", cdr.Long(0))
		held <- err
	}()
	var free []*pendingCall
	waitFor(t, 5*time.Second, "the held call pending", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		free = slices.Clone(e.freeCalls)
		return len(e.pending) == 1
	})
	if len(free) == 0 {
		t.Fatal("no call record was recycled")
	}
	e.Stop()
	select {
	case err := <-held:
		if !errors.Is(err, ErrEngineStopped) {
			t.Fatalf("the pending call returned %v, want ErrEngineStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop left the pending call waiting")
	}
	assertFreeCallsClean(t, free)
}

// recorder logs every execution's ordered message id and argument bytes
// and returns the argument. "slow" waits delay first; "hold" and GetState
// wait for gate to close when it is set.
type recorder struct {
	gate  chan struct{}
	delay time.Duration
	snaps atomic.Int64 // GetState calls begun

	mu    sync.Mutex
	execs []recorded
}

type recorded struct {
	msgID uint64
	arg   []byte
}

func (r *recorder) RepoID() string { return "IDL:repro/Recorder:1.0" }

func (r *recorder) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	switch inv.Operation {
	case "slow":
		time.Sleep(r.delay)
	case "hold":
		if r.gate != nil {
			<-r.gate
		}
	}
	arg := inv.Args[0].AsOctetSeq()
	r.mu.Lock()
	r.execs = append(r.execs, recorded{inv.Det.MsgID(), bytes.Clone(arg)})
	r.mu.Unlock()
	return []cdr.Value{cdr.OctetSeq(arg)}, nil
}

// GetState gives the number of executions.
func (r *recorder) GetState() ([]byte, error) {
	r.snaps.Add(1)
	if r.gate != nil {
		<-r.gate
	}
	return binary.BigEndian.AppendUint64(nil, uint64(r.executed())), nil
}

func (r *recorder) SetState([]byte) error { return nil }

func (r *recorder) executed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.execs)
}

func (r *recorder) log() []recorded {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.execs)
}

// argFor is the argument of the i-th test operation: its own bytes, of
// a length that varies with i.
func argFor(i int) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(i))
	return append(b, bytes.Repeat([]byte{byte(i)}, i%61)...)
}

// sendInvocation multicasts, from node's ring, an invocation of op on gid
// under key with one octet-sequence argument and no low-water mark, so
// nothing retires the key's record.
func (c *cluster) sendInvocation(node string, gid uint64, key opKey, op string, arg []byte) {
	c.t.Helper()
	payload, _ := encodeInvocation(&msgInvocation{GroupID: gid, Key: key, Operation: op}, []cdr.Value{cdr.OctetSeq(arg)})
	if err := c.engines[node].ringFor(gid).Multicast(namesOf(gid).inv, payload); err != nil {
		c.t.Fatal(err)
	}
}

// A joiner buffers what is delivered while it waits for state. More than
// three chunks of invocations later, it adopts the state and replays the
// buffered ones: the same operations, with the same keys and arguments, in
// the order the members executed them.
func TestSyncingBufferSurvivesLaterDeliveries(t *testing.T) {
	const gid, ops = 94, 4 * chunkLen
	c := newCluster(t, 4)
	def := GroupDef{ID: gid, Name: "buffer", Style: Active, CheckpointEvery: 1 << 20}
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open) // before the cluster stops: an engine waits for its executor
	members := map[string]*recorder{"n1": {gate: gate}, "n2": {gate: gate}}
	for node, r := range members {
		if err := c.engines[node].HostReplica(def, r, true); err != nil {
			t.Fatal(err)
		}
	}
	c.waitMembers(gid, []string{"n1", "n2"})
	joiner := &recorder{}
	if err := c.engines["n3"].HostReplica(def, joiner, false); err != nil {
		t.Fatal(err)
	}
	// The member answering the joiner is held in GetState until every
	// operation below is delivered.
	waitFor(t, 5*time.Second, "a member snapshotting for the joiner", func() bool {
		return members["n1"].snaps.Load()+members["n2"].snaps.Load() > 0
	})
	keys := make([]opKey, ops)
	for i := range keys {
		keys[i] = opKey{ClientID: "c:buffered", OpSeq: uint64(i + 1)}
		c.sendInvocation("n4", gid, keys[i], "log", argFor(i))
	}
	waitFor(t, 5*time.Second, "the member not answering executing every operation", func() bool {
		return members["n1"].executed()+members["n2"].executed() >= ops
	})
	if st, _ := c.engines["n3"].GroupStatus(gid); !st.Syncing {
		t.Fatal("the joiner left state transfer before the operations: it buffered nothing")
	}
	open()
	c.waitSynced(gid, "n3")
	waitFor(t, 5*time.Second, "every replica executing every operation", func() bool {
		return joiner.executed() >= ops && members["n1"].executed() >= ops && members["n2"].executed() >= ops
	})

	got := joiner.log()
	if len(got) != ops {
		t.Fatalf("the joiner executed %d operations, want %d", len(got), ops)
	}
	want := members["n1"].log()
	for i := range got {
		if got[i].msgID != want[i].msgID || !bytes.Equal(got[i].arg, argFor(i)) || !bytes.Equal(want[i].arg, argFor(i)) {
			t.Fatalf("replay %d: the joiner ran msg %d with %x, n1 msg %d with %x; sent %x",
				i, got[i].msgID, got[i].arg, want[i].msgID, want[i].arg, argFor(i))
		}
	}
	r := c.engines["n3"].replicaFor(gid)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range keys {
		if rec, st := r.dedup.lookup(k); st != keyLive || !rec.executedLocal || rec.key != k {
			t.Fatalf("after replay the joiner's record of %v reads state %d", k, st)
		}
	}
}

// driveCalls makes n calls of "add" on an ACTIVE account group from four
// concurrent callers.
func driveCalls(t *testing.T, proxy *Proxy, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				if _, err := proxy.Invoke("add", cdr.Long(1)); err != nil {
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

// A warm backup holds a delivered invocation in pendingOps until a reply
// covers it. More than three chunks of deliveries later, the primary
// crashes and the backup replays the held invocation: the client gets the
// answer to its own argument.
func TestPendingOpSurvivesLaterDeliveries(t *testing.T) {
	const gid, busy = 95, 96
	c := newCluster(t, 4)
	def := GroupDef{ID: gid, Name: "warm", Style: WarmPassive, CheckpointEvery: 1 << 20}
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open) // before the cluster stops: an engine waits for its executor
	servants := map[string]*recorder{"n1": {gate: gate}, "n2": {}}
	for node, r := range servants {
		if err := c.engines[node].HostReplica(def, r, true); err != nil {
			t.Fatal(err)
		}
	}
	c.waitMembers(gid, []string{"n1", "n2"})
	c.host(GroupDef{ID: busy, Name: "busy", Style: Active}, "n2", "n3")

	arg := argFor(4242)
	answer := make(chan []byte, 1)
	go func() {
		out, err := c.engines["n4"].Proxy(GroupRef{ID: gid}).Invoke("hold", cdr.OctetSeq(arg))
		if err != nil {
			t.Error(err)
			answer <- nil
			return
		}
		answer <- out[0].AsOctetSeq()
	}()
	r := c.engines["n2"].replicaFor(gid)
	waitFor(t, 5*time.Second, "the backup holding the invocation", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		rec, st := r.dedup.lookup(opKey{ClientID: c.engines["n4"].clientID, OpSeq: 1})
		return st == keyLive && rec.deliveredInv
	})
	driveCalls(t, c.engines["n4"].Proxy(GroupRef{ID: busy}), 4*chunkLen)

	c.fabric.CrashNode("n1")
	open()
	c.engines["n1"].Stop()
	c.rings["n1"].Stop()
	select {
	case got := <-answer:
		if !bytes.Equal(got, arg) {
			t.Fatalf("the replayed invocation answered %x, want %x", got, arg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no answer after failover")
	}
	if c.engines["n2"].Stats().Replays == 0 {
		t.Error("the backup answered without replaying its pending invocation")
	}
	if got := servants["n2"].log(); len(got) != 1 || !bytes.Equal(got[0].arg, arg) {
		t.Errorf("the backup executed %v, want the held invocation alone", got)
	}
}

// A dedup record keeps the first reply delivered for its operation — here
// another member's, since the senior member executes slowly — and the
// client's copy of it is a decoded message too. More than three chunks of
// deliveries later, both read as they did: a retransmission gets the
// logged reply back, and the client's first reply is unchanged.
func TestLoggedReplySurvivesLaterDeliveries(t *testing.T) {
	const gid = 96
	c := newCluster(t, 4)
	def := GroupDef{ID: gid, Name: "logged", Style: Active}
	servants := map[string]*recorder{"n1": {delay: 30 * time.Millisecond}, "n2": {}, "n3": {}}
	for node, r := range servants {
		if err := c.engines[node].HostReplica(def, r, true); err != nil {
			t.Fatal(err)
		}
	}
	c.waitMembers(gid, []string{"n1", "n2", "n3"})
	e := c.engines["n4"]
	e.ensureReplyJoined(gid)
	key := opKey{ClientID: "c:logged", OpSeq: 1}
	arg := argFor(777)
	call := func() *msgReply {
		t.Helper()
		pc, err := e.registerCall(key, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.sendInvocation("n4", gid, key, "slow", arg)
		select {
		case rep := <-pc.ch:
			return rep
		case <-time.After(5 * time.Second):
			t.Fatal("no reply")
			return nil
		}
	}
	first := call()
	kept := *first
	kept.Body = bytes.Clone(first.Body)
	waitFor(t, 5*time.Second, "n1 executing the slow call", func() bool { return servants["n1"].executed() == 1 })

	// Other calls on the same group from the same node: every member
	// decodes their invocations and replies after the logged one.
	busy := make([]byte, 64)
	proxy := e.Proxy(GroupRef{ID: gid})
	for i := 0; i < 4*chunkLen; i++ {
		out, err := proxy.Invoke("log", cdr.OctetSeq(busy))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[0].AsOctetSeq(), busy) {
			t.Fatalf("busy call %d answered %x", i, out[0].AsOctetSeq())
		}
	}

	again := call()
	for _, got := range []*msgReply{first, again} {
		if got.GroupID != kept.GroupID || got.Key != kept.Key || got.Status != kept.Status ||
			got.ExecMsgID != kept.ExecMsgID || !bytes.Equal(got.Body, kept.Body) {
			t.Fatalf("reply %+v, want the first %+v", got, kept)
		}
	}
	if body, err := wireToOutcome(again.Status, again.Body); err != nil || !bytes.Equal(body[0].AsOctetSeq(), arg) {
		t.Fatalf("the logged reply answers %v, %v; want %x", body, err, arg)
	}
}
