package totem

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
)

// These tests cover the leave half of the process-group lifecycle: the join
// paths get exercised by everything else, but LeaveGroup, rejoin after a
// leave, and the sequencing behaviour of a group with no members at all are
// the paths a membership bug would hide in.

// TestLeaveGroupStopsDelivery verifies a leave is a real unsubscription:
// messages multicast after the leave reach the remaining member but never
// the departed one, while the departed node keeps participating in the ring
// itself.
func TestLeaveGroupStopsDelivery(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 3)
	c.startAll()
	c.waitStableRing(3*time.Second, c.nodes)
	for _, n := range []string{"n1", "n2"} {
		if err := c.rings[n].JoinGroup("g"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, "both joined", func() bool {
		return slices.Equal(c.rings["n3"].GroupMembers("g"), []string{"n1", "n2"})
	})

	if err := c.rings["n2"].LeaveGroup("g"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "leave visible everywhere", func() bool {
		for _, n := range c.nodes {
			if !slices.Equal(c.rings[n].GroupMembers("g"), []string{"n1"}) {
				return false
			}
		}
		return true
	})

	atLeave := c.collect["n2"].deliverCount()
	c.rings["n3"].Multicast("g", []byte("post-leave"))
	waitFor(t, 3*time.Second, "n1 delivers post-leave", func() bool {
		ds := c.collect["n1"].deliverSnapshot()
		return len(ds) > 0 && string(ds[len(ds)-1].Payload) == "post-leave"
	})
	// The departed member must see nothing new; give stray deliveries a
	// moment to surface before declaring victory.
	time.Sleep(20 * time.Millisecond)
	if got := c.collect["n2"].deliverCount(); got != atLeave {
		t.Errorf("departed member delivered %d messages after leaving", got-atLeave)
	}
}

// TestRejoinAfterLeave verifies leave→rejoin is clean: the rejoined member
// appears in every node's group view again, receives messages sent after
// the rejoin, and never sees the messages from its absence.
func TestRejoinAfterLeave(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 3)
	c.startAll()
	c.waitStableRing(3*time.Second, c.nodes)
	for _, n := range c.nodes {
		if err := c.rings[n].JoinGroup("g"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, "all joined", func() bool {
		return slices.Equal(c.rings["n1"].GroupMembers("g"), c.nodes)
	})

	if err := c.rings["n2"].LeaveGroup("g"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "n2 out", func() bool {
		return slices.Equal(c.rings["n1"].GroupMembers("g"), []string{"n1", "n3"})
	})
	c.rings["n1"].Multicast("g", []byte("while-away"))
	waitFor(t, 3*time.Second, "n3 delivers while-away", func() bool {
		ds := c.collect["n3"].deliverSnapshot()
		return len(ds) > 0 && string(ds[len(ds)-1].Payload) == "while-away"
	})

	if err := c.rings["n2"].JoinGroup("g"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "rejoin visible everywhere", func() bool {
		for _, n := range c.nodes {
			if !slices.Equal(c.rings[n].GroupMembers("g"), c.nodes) {
				return false
			}
		}
		return true
	})
	c.rings["n3"].Multicast("g", []byte("after-rejoin"))
	waitFor(t, 3*time.Second, "n2 delivers after-rejoin", func() bool {
		ds := c.collect["n2"].deliverSnapshot()
		return len(ds) > 0 && string(ds[len(ds)-1].Payload) == "after-rejoin"
	})
	for _, d := range c.collect["n2"].deliverSnapshot() {
		if string(d.Payload) == "while-away" {
			t.Error("rejoined member delivered a message from its absence")
		}
	}
}

// TestGroupEmptiesSequencingContinues drains a group completely and checks
// the ring's sequencer carries on: multicasts into the empty group are still
// totally ordered (they consume sequence slots and count as protocol
// deliveries) while reaching no subscriber, and a later join resumes
// delivery with MsgIDs strictly after everything ordered during the empty
// period.
func TestGroupEmptiesSequencingContinues(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 3)
	c.startAll()
	c.waitStableRing(3*time.Second, c.nodes)
	for _, n := range []string{"n1", "n2"} {
		if err := c.rings[n].JoinGroup("g"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, "joined", func() bool {
		return slices.Equal(c.rings["n3"].GroupMembers("g"), []string{"n1", "n2"})
	})
	for _, n := range []string{"n1", "n2"} {
		if err := c.rings[n].LeaveGroup("g"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, "group empty everywhere", func() bool {
		for _, n := range c.nodes {
			if len(c.rings[n].GroupMembers("g")) != 0 {
				return false
			}
		}
		return true
	})

	// Messages into the empty group still flow through the total order.
	base := c.rings["n3"].Stats().Delivered
	appBefore := c.collect["n1"].deliverCount() + c.collect["n2"].deliverCount() + c.collect["n3"].deliverCount()
	const ghosts = 5
	for i := 0; i < ghosts; i++ {
		if err := c.rings["n3"].Multicast("g", []byte(fmt.Sprintf("ghost-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, "empty-group messages ordered", func() bool {
		return c.rings["n3"].Stats().Delivered >= base+ghosts
	})
	time.Sleep(20 * time.Millisecond)
	if got := c.collect["n1"].deliverCount() + c.collect["n2"].deliverCount() + c.collect["n3"].deliverCount(); got != appBefore {
		t.Errorf("empty group delivered %d messages to applications", got-appBefore)
	}

	// A fresh member picks the sequence back up strictly after the ghosts.
	if err := c.rings["n1"].JoinGroup("g"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "n1 back in", func() bool {
		return slices.Equal(c.rings["n2"].GroupMembers("g"), []string{"n1"})
	})
	c.rings["n2"].Multicast("g", []byte("revival"))
	waitFor(t, 3*time.Second, "revival delivered", func() bool {
		ds := c.collect["n1"].deliverSnapshot()
		return len(ds) > 0 && string(ds[len(ds)-1].Payload) == "revival"
	})
	ds := c.collect["n1"].deliverSnapshot()
	last := ds[len(ds)-1]
	if string(last.Payload) != "revival" || last.Sender != "n2" {
		t.Fatalf("revival delivery = %+v", last)
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].MsgID <= ds[i-1].MsgID {
			t.Fatalf("MsgID not increasing across the empty period: %d after %d", ds[i].MsgID, ds[i-1].MsgID)
		}
	}
}

// TestGroupChangeAllocs pins that an ordered join or leave publishes only
// the group it changed: delivering one on a ring with 64 groups allocates
// no more than delivering one on a ring with a single group.
func TestGroupChangeAllocs(t *testing.T) {
	allocs := func(groups int) float64 {
		r, _ := bareRing(t)
		subs := make([]groupSub, groups)
		for i := range subs {
			subs[i] = groupSub{Node: "n1", Group: fmt.Sprintf("g%d", i)}
		}
		r.handleInstall(&install{Ring: RingID{Epoch: r.ring.Epoch + 1, Coord: "n1"}, Members: r.members, Subs: subs}, time.Now())
		ctl := [2][]byte{encodeCtl(ctlJoin, "n3", "g0"), encodeCtl(ctlLeave, "n3", "g0")}
		seq := uint64(0)
		return testing.AllocsPerRun(200, func() {
			seq++
			r.deliverMsg(r.ring, storedMsg{Seq: seq, Group: ctlGroup, Sender: "n3", Payload: ctl[seq%2]})
		})
	}
	if one, many := allocs(1), allocs(64); many > one {
		t.Fatalf("a join or leave on a ring with 64 groups: %.0f allocs, with 1 group: %.0f", many, one)
	}
}
