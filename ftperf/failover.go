package main

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/ftcorba"
)

// restartAfter is how long a crashed node stays down. It outlasts
// detection and ring re-formation, so every cycle measures a complete
// failover before the node comes back.
const restartAfter = 150 * time.Millisecond

// cycle is one crash-and-restore of a server node.
type cycle struct {
	victim    string
	crash     time.Time
	detect    time.Time // first confirmed fault report for the victim
	reform    time.Time // every survivor's ring excludes the victim
	restart   time.Time
	recovered time.Time // every group back at full, synced membership
}

// pollEvery is the polling period for failover milestones. A sleep this
// short can last up to the host's timer tick (about 1 ms), which is
// still small against milestones tens of milliseconds apart.
const pollEvery = 100 * time.Microsecond

// poll calls cond until it holds or timeout passes.
func poll(timeout time.Duration, cond func() bool) (time.Time, bool) {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return time.Now(), true
		}
		if time.Now().After(deadline) {
			return time.Time{}, false
		}
		time.Sleep(pollEvery)
	}
}

// crashCycle crashes victim, waits for the survivors to re-form without
// it, restarts it and re-adds it to every group it hosted, and waits
// until every group is back at full strength.
func (e *env) crashCycle(victim string) (cycle, error) {
	cy := cycle{victim: victim}
	if victim == "" {
		return cy, fmt.Errorf("no victim: %s", e.groupsNotReady())
	}
	reports, cancel := e.d.Notifier.Subscribe(func(r fault.Report) bool {
		return r.Node == victim && r.Event == fault.EventFault
	})
	defer cancel()

	e.stats.retire(victim)
	cy.crash = time.Now()
	e.d.CrashNode(victim)

	var ok bool
	if cy.reform, ok = poll(10*time.Second, func() bool { return e.ringExcludes(victim) }); !ok {
		return cy, fmt.Errorf("ring did not re-form without %s", victim)
	}
	if _, ok = poll(10*time.Second, func() bool { return e.rmDropped(victim) }); !ok {
		return cy, fmt.Errorf("replication manager kept %s as a member", victim)
	}
	select {
	case r := <-reports:
		cy.detect = r.Detected
	case <-time.After(time.Second):
		return cy, fmt.Errorf("no fault report for %s", victim)
	}

	time.Sleep(time.Until(cy.crash.Add(restartAfter)))
	cy.restart = time.Now()
	if err := e.d.RestartNode(victim); err != nil {
		return cy, err
	}
	var err error
	if cy.recovered, err = e.heal(victim); err != nil {
		return cy, fmt.Errorf("after restarting %s: %w", victim, err)
	}
	return cy, nil
}

// heal re-adds missing members until every group is back at full, synced
// membership, and returns the time it was. A missing member is the
// restarted victim ("" for none) or a healthy node the fault detector
// evicted, which can happen at any time, set-up included; an application
// that manages membership itself must re-add it.
func (e *env) heal(victim string) (time.Time, error) {
	var restoreErr error
	at, ok := poll(10*time.Second, func() bool {
		if e.allGroupsReady() {
			return true
		}
		restoreErr = e.restoreMembership(victim)
		return false
	})
	switch {
	case ok:
		return at, nil
	case restoreErr != nil:
		return at, restoreErr
	}
	return at, fmt.Errorf("groups not back at %d synced replicas: %s", e.w.replicas, e.groupsNotReady())
}

// restoreMembership re-adds every live host missing from its group's
// membership, as an application that manages membership itself must.
// Besides the restarted victim that can be a healthy node the fault
// detector evicted; such re-adds are counted as false evictions.
func (e *env) restoreMembership(victim string) error {
	for g, gid := range e.gids {
		members, err := e.d.RM.Members(gid)
		if err != nil {
			return err
		}
		for _, h := range e.hosts[g] {
			n := e.d.Node(h)
			if slices.Contains(members, h) || n == nil {
				continue
			}
			// An evicted member whose replica still runs is only
			// reconciled: the servant the factory makes for the re-add is
			// discarded, so the registry keeps the running one.
			_, running := n.Engine.GroupStatus(gid)
			kept := e.reg.get(h, g)
			if _, err := e.d.RM.AddMember(gid, h); err != nil && !errors.Is(err, ftcorba.ErrMemberExists) {
				return fmt.Errorf("re-add %s to group %d: %w", h, g, err)
			}
			if running {
				e.reg.put(h, g, kept)
			}
			if h != victim {
				e.falseEvictions.Add(1)
			}
		}
	}
	return nil
}

// ringExcludes reports whether every live node's ring has re-formed
// without the victim.
func (e *env) ringExcludes(victim string) bool {
	for _, name := range e.d.Nodes() {
		n := e.d.Node(name)
		if n == nil {
			continue
		}
		id, members := n.Ring.CurrentRing()
		if id.IsZero() || slices.Contains(members, victim) {
			return false
		}
	}
	return true
}

// rmDropped reports whether the Replication Manager has processed the
// victim's fault for every group.
func (e *env) rmDropped(victim string) bool {
	for _, gid := range e.gids {
		members, err := e.d.RM.Members(gid)
		if err != nil || slices.Contains(members, victim) {
			return false
		}
	}
	return true
}

// allGroupsReady reports whether every group has its full replica count,
// each member hosted, synced and seeing the full view.
func (e *env) allGroupsReady() bool {
	for _, gid := range e.gids {
		if !e.groupReady(gid) {
			return false
		}
	}
	return true
}

func (e *env) groupReady(gid uint64) bool {
	members, err := e.d.RM.Members(gid)
	if err != nil || len(members) != e.w.replicas {
		return false
	}
	for _, m := range members {
		n := e.d.Node(m)
		if n == nil {
			return false
		}
		st, hosted := n.Engine.GroupStatus(gid)
		if !hosted || st.Syncing || len(st.Members) != e.w.replicas {
			return false
		}
	}
	return true
}

// groupsNotReady describes the groups allGroupsReady is waiting for.
func (e *env) groupsNotReady() string {
	var out []string
	for g, gid := range e.gids {
		members, _ := e.d.RM.Members(gid)
		var views []string
		for _, m := range members {
			if n := e.d.Node(m); n != nil {
				st, hosted := n.Engine.GroupStatus(gid)
				views = append(views, fmt.Sprintf("%s:hosted=%v,syncing=%v,view=%v", m, hosted, st.Syncing, st.Members))
			} else {
				views = append(views, m+":down")
			}
		}
		if !e.groupReady(gid) {
			out = append(out, fmt.Sprintf("group %d %v", g, views))
		}
	}
	return strings.Join(out, "; ")
}

// primaryOf names the current primary (senior member) of group g.
func (e *env) primaryOf(g int) string {
	members, err := e.d.RM.Members(e.gids[g])
	if err != nil {
		return ""
	}
	for _, m := range members {
		if n := e.d.Node(m); n != nil {
			if st, ok := n.Engine.GroupStatus(e.gids[g]); ok {
				return st.Primary
			}
		}
	}
	return ""
}

// followerVictim picks the k-th server (cyclically) among those that are
// primary of no group, so a crash never removes a leader.
func (e *env) followerVictim(k int) string {
	primaries := make(map[string]bool)
	for g := range e.gids {
		primaries[e.primaryOf(g)] = true
	}
	var cands []string
	for _, s := range e.servers {
		if !primaries[s] {
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		cands = e.servers
	}
	return cands[k%len(cands)]
}

// completions returns the end stamps of every successful call, sorted.
// Call it only once the clients have stopped.
func (e *env) completions() []int64 {
	var out []int64
	for _, c := range e.clients {
		for _, o := range c.log {
			if o.ok {
				out = append(out, o.end)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// blackout is the longest gap between successive completions from the
// crash up to the first completion after both the re-formation and the
// restart, the first gap running from the crash itself. A stall that
// outlasts the restart therefore counts in full. If no call completes
// after that point before the clients stop at until, the last gap runs
// to until.
func blackout(cy cycle, done []int64, until time.Time) time.Duration {
	prev, back := stamp(cy.crash), max(stamp(cy.reform), stamp(cy.restart))
	var worst int64
	i := sort.Search(len(done), func(i int) bool { return done[i] > prev })
	for ; i < len(done); i++ {
		worst = max(worst, done[i]-prev)
		prev = done[i]
		if prev > back {
			return time.Duration(worst)
		}
	}
	return time.Duration(max(worst, stamp(until)-prev))
}

// resume is the time from re-formation to the first completion after it.
func resume(cy cycle, done []int64) time.Duration {
	r := stamp(cy.reform)
	i := sort.Search(len(done), func(i int) bool { return done[i] > r })
	if i == len(done) {
		return 0
	}
	return time.Duration(done[i] - r)
}
