package main

import (
	"fmt"
	"testing"
)

// A benchmark that cannot fail is not a check: each test feeds the checker
// one wrong output and asserts it lands in failed_ops_share.

func failedShare(t *tally) float64 {
	r := newResult(wJoinFlat, 1, 1, false)
	r.finish(t)
	return r.Metrics["failed_ops_share"]
}

var testSets = [][]uint32{
	{1, 2, 3, 4},    // 0
	{1, 2, 3, 5},    // 1: J(0,1) = 3/5
	{1, 2, 9, 10},   // 2: J(0,2) = 2/6
	{20, 21, 22},    // 3
	{20, 21, 22, 5}, // 4: J(3,4) = 3/4
}

func TestPairBelowThresholdFails(t *testing.T) {
	var tl tally
	_, err := parseJoinOutput([]byte("0 1 0.6000\n3 4 0.7500\n"), testSets, 0.5)
	tl.record("sweep", err)
	if failedShare(&tl) != 0 {
		t.Fatalf("correct output counted as failed: %v", err)
	}
	_, err = parseJoinOutput([]byte("0 1 0.6000\n0 2 0.3333\n"), testSets, 0.5)
	tl.record("sweep", err)
	if err == nil || failedShare(&tl) != 0.5 {
		t.Fatalf("pair below λ not counted: err=%v share=%v", err, failedShare(&tl))
	}
	for _, bad := range []string{"0 1\n", "1 0 0.6\n", "0 9 0.6\n", "0 1 0.6\n0 1 0.6\n", "x y z\n"} {
		if _, err := parseJoinOutput([]byte(bad), testSets, 0.5); err == nil {
			t.Errorf("malformed output %q accepted", bad)
		}
	}
}

func TestDroppedPlantedPairsFail(t *testing.T) {
	planted := make([]plantedPair, 100)
	reported := map[idPair]bool{}
	for i := range planted {
		planted[i] = plantedPair{A: 2 * i, B: 2*i + 1, Inter: 3, Union: 4}
		if i < 85 {
			reported[idPair{2 * i, 2*i + 1}] = true
		}
	}
	var tl tally
	rc := plantedRecall(planted, 0.7, reported)
	if rc.Found != 85 || rc.Exist != 100 {
		t.Fatalf("recall count %+v, want 85 of 100", rc)
	}
	tl.record("recall", checkRecallFloor(rc))
	if failedShare(&tl) != 1 {
		t.Fatalf("recall 0.85 passed the %.2f floor", recallFloor)
	}
	if plantedRecall(planted, 0.8, reported).Exist != 0 {
		t.Fatalf("pairs at J=0.75 counted as truth for λ=0.8")
	}
	if err := checkRecallFloor(recallCount{Found: 95, Exist: 100}); err != nil {
		t.Fatalf("recall 0.95 failed: %v", err)
	}
}

func TestResurrectedDeleteFails(t *testing.T) {
	deleted := map[int]int64{7: 1000}
	answer := queryAnswer{Found: true, Matches: []match{{ID: 3, Sim: 0.8}, {ID: 7, Sim: 0.6}}}
	var tl tally
	tl.record("open_loop", checkNoResurrection(answer, 900, deleted)) // sent before the ack: allowed
	if failedShare(&tl) != 0 {
		t.Fatalf("a read sent before the delete's ack was charged")
	}
	tl.record("open_loop", checkNoResurrection(answer, 2000, deleted))
	if failedShare(&tl) != 0.5 {
		t.Fatalf("resurrected id not counted, share=%v", failedShare(&tl))
	}
	best := queryAnswer{Found: true, ID: 7, Sim: 0.9}
	if checkNoResurrection(best, 2000, deleted) == nil {
		t.Fatalf("resurrected best match not detected")
	}
}

func TestNonIdenticalBatchFails(t *testing.T) {
	want := [][]match{{{ID: 1, Sim: 0.6}}, {}, {{ID: 4, Sim: 0.75}, {ID: 9, Sim: 0.5}}}
	body := func(sim float64) []byte {
		return []byte(fmt.Sprintf(`{"results":[[{"id":1,"sim":0.6}],[],[{"id":4,"sim":%g},{"id":9,"sim":0.5}]]}`, sim))
	}
	var tl tally
	tl.record("batch", checkBatchAnswer(body(0.75), want))
	if failedShare(&tl) != 0 {
		t.Fatalf("identical batch answer counted as failed")
	}
	tl.record("batch", checkBatchAnswer(body(0.76), want))
	if failedShare(&tl) != 0.5 {
		t.Fatalf("non-identical batch answer not counted, share=%v", failedShare(&tl))
	}
	if checkBatchAnswer([]byte(`{"results":[[]]}`), want) == nil || checkBatchAnswer([]byte(`{`), want) == nil {
		t.Fatalf("short or malformed batch answer accepted")
	}
}

func TestMatchScoresAreRecomputed(t *testing.T) {
	setOf := catalogueSets(testSets)
	q := testSets[0]
	ok := queryAnswer{Found: true, Matches: []match{{ID: 0, Sim: 1}, {ID: 1, Sim: 0.6}}}
	if err := checkMatches(ok, q, readAll, 0.5, setOf); err != nil {
		t.Fatalf("correct matches rejected: %v", err)
	}
	for name, bad := range map[string]queryAnswer{
		"below threshold": {Found: true, Matches: []match{{ID: 2, Sim: 0.3333}}},
		"wrong score":     {Found: true, Matches: []match{{ID: 1, Sim: 0.9}}},
		"unknown id":      {Found: true, Matches: []match{{ID: 99, Sim: 0.9}}},
	} {
		if checkMatches(bad, q, readAll, 0.5, setOf) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Containment of {1,2,3,5} in {1,2,3,4} is 3/4, below the 0.8 the
	// mixed workload asks for.
	if checkMatches(queryAnswer{Found: true, Matches: []match{{ID: 0, Sim: 0.75}}}, testSets[1], readContain, 0.5, setOf) == nil {
		t.Errorf("containment match below %.1f accepted", containThreshold)
	}
	if err := checkContains(queryAnswer{Matches: []match{{ID: 5, Sim: 1}}}, 5); err != nil {
		t.Errorf("read-back rejected: %v", err)
	}
	if checkContains(queryAnswer{Matches: []match{{ID: 5, Sim: 0.9}}}, 5) == nil || checkContains(queryAnswer{}, 5) == nil {
		t.Errorf("bad read-back accepted")
	}
}
