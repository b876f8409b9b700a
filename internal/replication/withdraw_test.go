package replication

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cdr"
)

// TestReplyWithdrawKey pins the withdraw key of an encoded reply: replies
// from two replicas to one operation share it, and a reply to any other
// operation or group never starts with it.
func TestReplyWithdrawKey(t *testing.T) {
	base := msgReply{GroupID: 7, Key: opKey{ClientID: "c1", ParentSeq: 3, OpSeq: 9}, Status: replyOK, Body: []byte("body"), Node: "n1", ExecMsgID: 40}
	encode := func(m msgReply) (payload, key []byte) {
		t.Helper()
		payload, keyLen := encodeReply(&m)
		if wire, err := encodeWire(&m); err != nil || !bytes.Equal(wire, payload) {
			t.Fatalf("encodeReply and encodeWire disagree (err %v)", err)
		}
		if keyLen <= 0 || keyLen > len(payload) {
			t.Fatalf("key length %d of a %d-byte reply", keyLen, len(payload))
		}
		return payload, payload[:keyLen]
	}
	matches := func(queued, delivered msgReply) bool {
		_, key := encode(queued)
		payload, _ := encode(delivered)
		return bytes.HasPrefix(payload, key)
	}

	sameOp := base
	sameOp.Node, sameOp.Body, sameOp.Status, sameOp.ExecMsgID = "n2", []byte("another body, longer"), replyUserExc, 41
	sameOp.Update, sameOp.UpdateFull = []byte("u"), true
	if !matches(base, sameOp) || !matches(sameOp, base) {
		t.Fatal("replies from two replicas to one operation do not share a withdraw key")
	}

	other := func(f func(*msgReply)) msgReply {
		m := base
		f(&m)
		return m
	}
	for name, m := range map[string]msgReply{
		"GroupID":         other(func(m *msgReply) { m.GroupID = 8 }),
		"ClientID":        other(func(m *msgReply) { m.Key.ClientID = "c2" }),
		"ClientID longer": other(func(m *msgReply) { m.Key.ClientID = "c10" }),
		"ClientID prefix": other(func(m *msgReply) { m.Key.ClientID = "c" }),
		"ClientID empty":  other(func(m *msgReply) { m.Key.ClientID = "" }),
		"ParentSeq":       other(func(m *msgReply) { m.Key.ParentSeq = 4 }),
		"OpSeq":           other(func(m *msgReply) { m.Key.OpSeq = 10 }),
		"OpSeq high":      other(func(m *msgReply) { m.Key.OpSeq = 9 << 32 }),
	} {
		if matches(base, m) || matches(m, base) {
			t.Errorf("replies differing in %s share a withdraw key", name)
		}
	}
}

// ringSent sums totem Stats.Sent over the given nodes' rings.
func (c *cluster) ringSent(nodes ...string) uint64 {
	var n uint64
	for _, node := range nodes {
		n += c.rings[node].Stats().Sent
	}
	return n
}

// suppressed sums Engine.Stats().SuppressedReplies over the given nodes.
func (c *cluster) suppressed(nodes ...string) uint64 {
	var n uint64
	for _, node := range nodes {
		n += c.engines[node].Stats().SuppressedReplies
	}
	return n
}

// TestActiveRepliesWithdrawn runs sequential calls against a 3-replica
// ACTIVE group from a fourth node. Each replica's reply waits in its send
// queue for the token; once one replica's reply is delivered, the others
// withdraw theirs, so well under three replies per call reach the wire.
// Every call completes once with the right result, and every replica
// either sent or suppressed its reply to every call.
func TestActiveRepliesWithdrawn(t *testing.T) {
	c := newCluster(t, 4)
	replicas := []string{"n1", "n2", "n3"}
	def := GroupDef{ID: 20, Name: "withdraw", Style: Active}
	c.host(def, replicas...)
	proxy := c.engines["n4"].Proxy(GroupRef{ID: def.ID})
	var want int64
	add := func(i int) {
		t.Helper()
		out, err := proxy.Invoke("add", cdr.Long(int32(i)))
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		want += int64(i)
		if got := out[0].AsLongLong(); got != want {
			t.Fatalf("add %d returned %d, want %d", i, got, want)
		}
	}
	// settled waits until every replica sent or suppressed its reply to
	// each of n calls made since the counts read sent0 and supp0. A
	// replica's ring may also have sent a join checkpoint since then.
	settled := func(n int, sent0, supp0 uint64) {
		t.Helper()
		waitFor(t, 5*time.Second, "every replica sent or suppressed every reply", func() bool {
			return c.ringSent(replicas...)-sent0+c.suppressed(replicas...)-supp0 >= uint64(3*n)
		})
	}
	const warm, calls = 20, 200
	sent0, supp0 := c.ringSent(replicas...), c.suppressed(replicas...)
	for i := 1; i <= warm; i++ {
		add(i)
	}
	settled(warm, sent0, supp0)
	sent0, supp0 = c.ringSent(replicas...), c.suppressed(replicas...)
	for i := warm + 1; i <= warm+calls; i++ {
		add(i)
	}
	settled(calls, sent0, supp0)
	sent := c.ringSent(replicas...) - sent0
	perCall := float64(sent) / calls
	t.Logf("%d calls: %.2f replies sent per call, %d suppressed", calls, perCall, c.suppressed(replicas...)-supp0)
	if perCall > 1.5 {
		t.Errorf("%.2f replies sent per call, want at most 1.5", perCall)
	}
	for _, node := range replicas {
		if bal, ops := c.servants[node][def.ID].snapshot(); bal != want || ops != warm+calls {
			t.Errorf("%s: balance=%d ops=%d, want %d and %d", node, bal, ops, want, warm+calls)
		}
	}
}

// TestVotingRepliesNotWithdrawn: an ACTIVE_WITH_VOTING client votes over
// every replica's reply, so none is withdrawn or suppressed: the three
// replicas send a reply each for every call.
func TestVotingRepliesNotWithdrawn(t *testing.T) {
	c := newCluster(t, 4)
	replicas := []string{"n1", "n2", "n3"}
	def := GroupDef{ID: 21, Name: "vote-all", Style: ActiveWithVoting}
	c.host(def, replicas...)
	proxy := c.engines["n4"].Proxy(GroupRef{ID: def.ID}, WithVotes(3))
	sent0 := c.ringSent(replicas...)
	const calls = 40
	for i := 0; i < calls; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(1)); err != nil {
			t.Fatalf("voted add %d: %v", i, err)
		}
	}
	// A call returns on two agreeing replies; the third may still be on
	// its way.
	waitFor(t, 5*time.Second, "a reply from every replica for every call", func() bool {
		return c.ringSent(replicas...)-sent0 >= 3*calls
	})
	if s := c.suppressed(replicas...); s != 0 {
		t.Fatalf("voting replicas suppressed %d replies", s)
	}
	for _, node := range replicas {
		if w := c.rings[node].Stats().Withdrawn; w != 0 {
			t.Fatalf("%s withdrew %d voting replies", node, w)
		}
	}
}
