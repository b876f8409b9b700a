package replication

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/drstore"
	"repro/internal/fault"
	"repro/internal/wal"
)

// flakyStore is a DR store that refuses every nth update or checkpoint.
type flakyStore struct {
	drstore.Store
	n             uint64
	calls, failed atomic.Uint64
}

var errStoreDown = errors.New("store unavailable")

func (s *flakyStore) fail() bool {
	if s.calls.Add(1)%s.n == 0 {
		s.failed.Add(1)
		return true
	}
	return false
}

func (s *flakyStore) AppendUpdate(gid uint64, rec wal.Record) error {
	if s.fail() {
		return errStoreDown
	}
	return s.Store.AppendUpdate(gid, rec)
}

func (s *flakyStore) PutCheckpoint(gid uint64, cp drstore.Checkpoint) error {
	if s.fail() {
		return errStoreDown
	}
	return s.Store.PutCheckpoint(gid, cp)
}

// A shipment the DR store refuses is counted and reported as a fault, not
// dropped in silence.
func TestDRShipErrorsReported(t *testing.T) {
	store := &flakyStore{Store: drstore.NewMemStore(), n: 3}
	notifier := &fault.Notifier{}
	reports, cancel := notifier.Subscribe(func(rep fault.Report) bool { return rep.Kind == fault.DRShipFailure })
	defer cancel()
	c := newCluster(t, 2, func(cfg *Config) {
		cfg.DR = store
		cfg.Notifier = notifier
	})
	def := GroupDef{ID: 35, Name: "ship", Style: WarmPassive, CheckpointEvery: 4}
	c.host(def, "n1", "n2")
	proxy := c.engines["n2"].Proxy(GroupRef{ID: 35})
	for i := 1; i <= 12; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.waitSettled(35, "n1", "n2")

	failed := store.failed.Load()
	if failed == 0 {
		t.Fatalf("the store refused nothing over %d calls", store.calls.Load())
	}
	var counted uint64
	for _, e := range c.engines {
		counted += e.Stats().DRShipErrors
	}
	if counted != failed {
		t.Fatalf("DRShipErrors %d, the store refused %d", counted, failed)
	}
	for i := uint64(0); i < failed; i++ {
		select {
		case rep := <-reports:
			if rep.GroupID != 35 || rep.Node != "n1" || !strings.Contains(rep.Detail, errStoreDown.Error()) {
				t.Errorf("report %+v, want group 35 shipped by n1 naming the store's error", rep)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d refusals reported", i, failed)
		}
	}
}
