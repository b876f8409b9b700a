package fault

import "testing"

func TestNotifierFanOutAndFilter(t *testing.T) {
	var n Notifier
	all, cancelAll := n.Subscribe(nil)
	defer cancelAll()
	nodeOnly, cancelNode := n.Subscribe(func(r Report) bool { return r.Kind == NodeCrash })
	defer cancelNode()

	n.Push(Report{Kind: ObjectCrash, Node: "n1", Member: "obj"})
	n.Push(Report{Kind: NodeCrash, Node: "n2"})

	r1 := <-all
	r2 := <-all
	if r1.Kind != ObjectCrash || r2.Kind != NodeCrash {
		t.Errorf("all-subscriber got %v then %v", r1.Kind, r2.Kind)
	}
	rn := <-nodeOnly
	if rn.Kind != NodeCrash || rn.Node != "n2" {
		t.Errorf("filtered subscriber got %+v", rn)
	}
	select {
	case extra := <-nodeOnly:
		t.Errorf("filtered subscriber got unexpected %+v", extra)
	default:
	}
}

func TestNotifierCancelCloses(t *testing.T) {
	var n Notifier
	ch, cancel := n.Subscribe(nil)
	cancel()
	if _, ok := <-ch; ok {
		t.Error("channel must be closed after cancel")
	}
	cancel() // double cancel is safe
	n.Push(Report{Kind: NodeCrash})
}

func TestNotifierStampsDetectedTime(t *testing.T) {
	var n Notifier
	ch, cancel := n.Subscribe(nil)
	defer cancel()
	n.Push(Report{Kind: ObjectCrash})
	r := <-ch
	if r.Detected.IsZero() {
		t.Error("Detected not stamped")
	}
}

func TestKindString(t *testing.T) {
	if ObjectCrash.String() != "object-crash" || NodeCrash.String() != "node-crash" ||
		ProcessCrash.String() != "process-crash" || Kind(99).String() != "unknown" {
		t.Error("Kind.String broken")
	}
}
