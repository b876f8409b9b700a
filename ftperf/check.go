package main

import (
	"fmt"
	"sort"
	"time"
)

// session is one client's view of each group, for the session guarantee
// LEADER_FOLLOWER follower reads make (read-your-writes and monotonic
// reads) and every ordered read makes a fortiori: a read returns a count
// at least the one the client's latest acked write returned, and at least
// the one its previous read returned.
type session struct {
	client              int
	lastWrite, lastRead []uint64
	violations          []string
}

func newSession(client, groups int) *session {
	return &session{client: client, lastWrite: make([]uint64, groups), lastRead: make([]uint64, groups)}
}

func (s *session) wrote(group int, n uint64) { s.lastWrite[group] = max(s.lastWrite[group], n) }

func (s *session) read(group int, n uint64) {
	if floor := max(s.lastWrite[group], s.lastRead[group]); n < floor && len(s.violations) < 8 {
		s.violations = append(s.violations, fmt.Sprintf("client %d group %d: read %d after own write %d and read %d",
			s.client, group, n, s.lastWrite[group], s.lastRead[group]))
	}
	s.lastRead[group] = max(s.lastRead[group], n)
}

// groupCheck is what the run knows about one group when it ends: the
// state of every live replica and the writes the clients issued to it.
type groupCheck struct {
	group    int
	replicas map[string]replicaState // by node
	acks     []ack
	failed   int // writes whose outcome the client never learned
}

// checkGroup returns the group's exactly-once and agreement violations:
//   - every live replica holds the same count, fold and state digest;
//   - acked writes <= applied count <= acked + failed;
//   - with no failed write, the fold equals the fold of the acked ids;
//   - every acked write returned a distinct count no larger than the
//     applied count.
func checkGroup(g groupCheck) []string {
	var bad []string
	var ref replicaState
	var refNode string
	nodes := make([]string, 0, len(g.replicas))
	for n := range g.replicas {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for i, n := range nodes {
		st := g.replicas[n]
		if i == 0 {
			ref, refNode = st, n
			continue
		}
		if st != ref {
			bad = append(bad, fmt.Sprintf("group %d: replica %s %+v differs from %s %+v", g.group, n, st, refNode, ref))
		}
	}
	if len(nodes) == 0 {
		return append(bad, fmt.Sprintf("group %d: no live replica", g.group))
	}
	acked := uint64(len(g.acks))
	if ref.Count < acked || ref.Count > acked+uint64(g.failed) {
		bad = append(bad, fmt.Sprintf("group %d: applied %d writes, clients acked %d and lost %d", g.group, ref.Count, acked, g.failed))
	}
	var fold uint64
	results := make([]uint64, 0, len(g.acks))
	for _, a := range g.acks {
		fold += foldOf(a.id)
		results = append(results, a.result)
	}
	if g.failed == 0 && fold != ref.Fold {
		bad = append(bad, fmt.Sprintf("group %d: fold %x, acked writes fold to %x", g.group, ref.Fold, fold))
	}
	sort.Slice(results, func(i, j int) bool { return results[i] < results[j] })
	for i, r := range results {
		if r > ref.Count || (i > 0 && r == results[i-1]) {
			bad = append(bad, fmt.Sprintf("group %d: acked write returned count %d (applied %d, duplicate=%v)",
				g.group, r, ref.Count, i > 0 && r == results[i-1]))
			break
		}
	}
	return bad
}

// check waits for the replicas to drain, then runs every correctness
// check. It returns the violations found.
func (e *env) check() []string {
	var bad []string
	if _, err := e.heal(""); err != nil {
		bad = append(bad, err.Error())
	}
	for _, c := range e.clients {
		bad = append(bad, c.sess.violations...)
	}
	acks := make([][]ack, len(e.gids))
	failed := make([]int, len(e.gids))
	for _, c := range e.clients {
		for _, a := range c.acks {
			acks[a.group] = append(acks[a.group], a)
		}
		for g, n := range c.failedWrites {
			failed[g] += n
		}
	}
	for g := range e.gids {
		var gc groupCheck
		// Active and follower replicas may still be applying the last
		// writes; give them a moment to agree before judging.
		deadline := time.Now().Add(5 * time.Second)
		for {
			gc = groupCheck{group: g, replicas: e.replicaStates(g), acks: acks[g], failed: failed[g]}
			if len(checkGroup(gc)) == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if len(gc.replicas) != e.w.replicas {
			bad = append(bad, fmt.Sprintf("group %d: %d live replicas, want %d", g, len(gc.replicas), e.w.replicas))
		}
		bad = append(bad, checkGroup(gc)...)
	}
	return bad
}

// replicaStates reads the servant of every current member of group g.
func (e *env) replicaStates(g int) map[string]replicaState {
	out := make(map[string]replicaState)
	members, err := e.d.RM.Members(e.gids[g])
	if err != nil {
		return out
	}
	for _, m := range members {
		if c := e.reg.get(m, g); c != nil && e.d.Node(m) != nil {
			out[m] = c.snapshot()
		}
	}
	return out
}
