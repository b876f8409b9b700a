package bench

import (
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smokeScale keeps the experiment smoke tests fast; correctness of the
// numbers is not asserted here (EXPERIMENTS.md records full runs), only
// that every experiment completes and produces a well-formed table.
var smokeScale = Scale{Invocations: 8, Warmup: 2}

func checkTable(t *testing.T, tab *Table, wantRows int) {
	t.Helper()
	if tab.ID == "" || tab.Title == "" || len(tab.Columns) == 0 {
		t.Fatalf("malformed table: %+v", tab)
	}
	if len(tab.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d", tab.ID, len(tab.Rows), wantRows)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("%s row %d has %d cells, want %d", tab.ID, i, len(row), len(tab.Columns))
		}
	}
	tab.Fprint(io.Discard)
}

func TestE1Smoke(t *testing.T) {
	tab, err := E1LatencyByStyle(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 16) // 4 styles x 4 payloads

	// Sanity on the shape: replicated invocations must cost more than the
	// unreplicated baseline at the same payload.
	mean := func(style, payload string) float64 {
		for _, row := range tab.Rows {
			if row[0] == style && row[1] == payload {
				v, _ := strconv.ParseFloat(row[2], 64)
				return v
			}
		}
		t.Fatalf("row %s/%s missing", style, payload)
		return 0
	}
	if mean("ACTIVE", "256") <= mean("unreplicated", "256") {
		t.Log("warning: active not slower than unreplicated at 256B (timing noise at smoke scale)")
	}
}

func TestE2Smoke(t *testing.T) {
	tab, err := E2ReplicationDegree(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 8) // 2 styles x 4 degrees
}

func TestE3Smoke(t *testing.T) {
	tab, err := E3Failover(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 9) // 3 styles x 3 heartbeats
	for _, row := range tab.Rows {
		blackout, err := strconv.ParseFloat(row[2], 64)
		if err != nil || blackout <= 0 {
			t.Errorf("row %v: bad blackout", row)
		}
		if blackout > 5000 {
			t.Errorf("row %v: implausible blackout %.0fms", row, blackout)
		}
	}
}

func TestE4Smoke(t *testing.T) {
	tab, err := E4StateTransfer(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 5)
	// Shape: transfer time must grow from the smallest to the largest state.
	first, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	last, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64)
	if last < first {
		t.Errorf("state transfer not increasing with size: %.2f .. %.2f", first, last)
	}
}

func TestE5Smoke(t *testing.T) {
	tab, err := E5DuplicateSuppression(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 3)
	// With 3 caller replicas there must be suppressed duplicates.
	row := tab.Rows[2]
	dups, _ := strconv.ParseInt(row[3], 10, 64)
	if dups == 0 {
		t.Errorf("no duplicate invocations with 3 callers: %v", row)
	}
}

func TestE6Smoke(t *testing.T) {
	tab, err := E6CheckpointInterval(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 4)
	// Shape: replay count grows with the checkpoint interval.
	r0, _ := strconv.ParseInt(tab.Rows[0][2], 10, 64)
	r3, _ := strconv.ParseInt(tab.Rows[3][2], 10, 64)
	if r3 < r0 {
		t.Errorf("replays not increasing with interval: %d .. %d", r0, r3)
	}
}

func TestE7Smoke(t *testing.T) {
	tab, err := E7PartitionRemerge(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 3)
	for _, row := range tab.Rows {
		if row[3] != "true" {
			t.Errorf("row %v: did not converge", row)
		}
		want := row[0]
		if row[1] != want {
			t.Errorf("row %v: fulfillments %s != secondary ops %s", row, row[1], want)
		}
	}
}

func TestE8Smoke(t *testing.T) {
	tab, err := E8Approaches(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 4)
}

func TestT1Smoke(t *testing.T) {
	tab, err := T1Totem(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 12) // 2 protocols x 3 sizes x 2 payloads
}

func TestSLOSmoke(t *testing.T) {
	tab, err := SLOWorkloadSeeded(smokeScale, 1, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	// calm: all + per-style rows; chaos: all + calm-windows + per-kind rows
	// (the 2-episode smoke schedule hits 1 or 2 distinct kinds) + per-style
	// rows.
	minRows := 2*(1+len(sloStyles)) + 2 // + calm-windows + ≥1 episode kind
	if len(tab.Rows) < minRows || len(tab.Rows) > minRows+1 {
		t.Fatalf("unexpected row count %d:\n%v", len(tab.Rows), tab.Rows)
	}
	checkTable(t, tab, len(tab.Rows))
	row := func(phase string) []string {
		for _, r := range tab.Rows {
			if r[0] == phase && r[1] == "all" {
				return r
			}
		}
		t.Fatalf("no %s/all row:\n%v", phase, tab.Rows)
		return nil
	}
	calm, chaos := row("calm"), row("chaos")
	for _, r := range [][]string{calm, chaos} {
		if r[2] == "0" || r[7] == "-" || r[8] == "-" {
			t.Fatalf("degenerate %s row: %v", r[0], r)
		}
	}
	if calm[8] != "0" {
		t.Fatalf("calm phase had %s errors", calm[8])
	}
	if chaos[9] == "-" {
		t.Fatalf("chaos row has no blackout p99: %v", chaos)
	}
}

func TestTablePrinting(t *testing.T) {
	tab := &Table{
		ID:      "X",
		Title:   "demo",
		Columns: []string{"a", "longer-column"},
		Rows:    [][]string{{"1", "2"}, {"wide-cell-content", "3"}},
		Notes:   []string{"a note"},
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"X — demo", "longer-column", "wide-cell-content", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestByIDComplete(t *testing.T) {
	for _, id := range []string{"e1", "e2", "e2p", "e3", "e4", "e5", "e6", "e7", "e8", "t1", "slo", "e2mp", "dr", "fd", "lf"} {
		if ByID[id] == nil {
			t.Errorf("ByID missing %s", id)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond})
	if s.mean < 1900 || s.mean > 2100 {
		t.Errorf("mean = %v", s.mean)
	}
	if s.p50 != 2000 {
		t.Errorf("p50 = %v", s.p50)
	}
	if s.p99 != 3000 {
		t.Errorf("p99 = %v", s.p99)
	}
	if z := summarize(nil); z.mean != 0 {
		t.Errorf("empty summarize = %+v", z)
	}
}
