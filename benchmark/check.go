package main

// Output checks. Every operation the harness drives is recorded in a tally
// as attempted, and as failed when the process or request failed or its
// output broke a correctness rule; failed_ops_share is failed/attempted.
// Similarities are recomputed here from the generated sets, not taken
// from the program's own arithmetic.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// phaseCount is the attempted/failed count of one phase of a run.
type phaseCount struct {
	Phase     string `json:"phase"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
}

// tally accumulates operation outcomes per phase, in first-use order.
type tally struct {
	Phases   []phaseCount
	Failures []string // first few failure messages, for the report
}

// record counts one operation in phase; a non-nil err marks it failed.
func (t *tally) record(phase string, err error) {
	i := 0
	for i < len(t.Phases) && t.Phases[i].Phase != phase {
		i++
	}
	if i == len(t.Phases) {
		t.Phases = append(t.Phases, phaseCount{Phase: phase})
	}
	t.Phases[i].Attempted++
	if err != nil {
		t.Phases[i].Failed++
		if len(t.Failures) < 10 {
			t.Failures = append(t.Failures, phase+": "+err.Error())
		}
	}
}

// overlap returns |a ∩ b| for sorted distinct token lists.
func overlap(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

func jaccard(a, b []uint32) float64 {
	in := overlap(a, b)
	return float64(in) / float64(len(a)+len(b)-in)
}

// containment is |q ∩ y| / |q|.
func containment(q, y []uint32) float64 { return float64(overlap(q, y)) / float64(len(q)) }

// simSlack absorbs the difference between this file's division and the
// program's own threshold arithmetic for pairs sitting exactly on λ.
const simSlack = 1e-9

type idPair struct{ A, B int }

// parseJoinOutput reads ssjoin's "i j sim" lines and checks each pair:
// ids in range, i < j, no repeats, and exact Jaccard ≥ lambda (precision
// must be 1.0). It returns the reported pairs and the first violation.
func parseJoinOutput(out []byte, sets [][]uint32, lambda float64) (map[idPair]bool, error) {
	pairs := make(map[idPair]bool)
	var first error
	fail := func(format string, args ...any) {
		if first == nil {
			first = fmt.Errorf(format, args...)
		}
	}
	for ln, line := range bytes.Split(out, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		f := bytes.Fields(line)
		if len(f) != 3 {
			fail("line %d: want 3 fields, got %q", ln+1, line)
			continue
		}
		a, errA := strconv.Atoi(string(f[0]))
		b, errB := strconv.Atoi(string(f[1]))
		if errA != nil || errB != nil || a < 0 || b <= a || b >= len(sets) {
			fail("line %d: bad pair %q", ln+1, line)
			continue
		}
		p := idPair{a, b}
		if pairs[p] {
			fail("line %d: pair %d %d reported twice", ln+1, a, b)
		}
		pairs[p] = true
		if j := jaccard(sets[a], sets[b]); j < lambda-simSlack {
			fail("line %d: pair %d %d has Jaccard %.4f below λ=%.2f", ln+1, a, b, j, lambda)
		}
	}
	return pairs, first
}

// recallCount is found/exist over planted pairs.
type recallCount struct{ Found, Exist int }

func (r *recallCount) add(o recallCount) { r.Found += o.Found; r.Exist += o.Exist }

func (r recallCount) ratio() float64 {
	if r.Exist == 0 {
		return 0
	}
	return float64(r.Found) / float64(r.Exist)
}

// plantedRecall counts the planted pairs with J ≥ lambda and how many of
// them the program reported.
func plantedRecall(planted []plantedPair, lambda float64, reported map[idPair]bool) recallCount {
	var rc recallCount
	for _, p := range planted {
		if p.jaccard() >= lambda {
			rc.Exist++
			if reported[idPair{p.A, p.B}] {
				rc.Found++
			}
		}
	}
	return rc
}

// recallFloor is the recall every workload must reach on planted truth;
// below it the run's output is wrong, not slow.
const recallFloor = 0.9

func checkRecallFloor(rc recallCount) error {
	if rc.ratio() < recallFloor {
		return fmt.Errorf("recall %.4f (%d of %d planted) below the %.2f floor", rc.ratio(), rc.Found, rc.Exist, recallFloor)
	}
	return nil
}

// match and queryAnswer mirror the JSON of /v1/query.
type match struct {
	ID  int     `json:"id"`
	Sim float64 `json:"sim"`
}

type queryAnswer struct {
	Found   bool    `json:"found"`
	ID      int     `json:"id"`
	Sim     float64 `json:"sim"`
	Matches []match `json:"matches"`
}

func parseAnswer(body []byte) (queryAnswer, error) {
	var a queryAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("malformed answer: %v", err)
	}
	return a, nil
}

// ids returns every set id an answer names (the best match of a
// non-all query included).
func (a queryAnswer) ids() []int {
	out := make([]int, 0, len(a.Matches)+1)
	for _, m := range a.Matches {
		out = append(out, m.ID)
	}
	if a.Found && len(a.Matches) == 0 {
		out = append(out, a.ID)
	}
	return out
}

// readKind is the flavour of a /v1/query read.
type readKind int

const (
	readAll readKind = iota
	readBest
	readContain
)

// containThreshold is the containment threshold of the mixed workload's
// containment reads.
const containThreshold = 0.8

// checkMatches verifies every match of an answer against the sets the
// harness knows (catalogue plus acknowledged adds): the score the program
// printed must be the exact similarity and must reach the threshold.
func checkMatches(a queryAnswer, q []uint32, kind readKind, lambda float64, setOf func(id int) []uint32) error {
	ms := a.Matches
	if kind == readBest && a.Found {
		ms = []match{{ID: a.ID, Sim: a.Sim}}
	}
	for _, m := range ms {
		y := setOf(m.ID)
		if y == nil {
			return fmt.Errorf("match id %d is not a set the harness added", m.ID)
		}
		want, floor := jaccard(q, y), lambda
		if kind == readContain {
			want, floor = containment(q, y), containThreshold
		}
		if want < floor-simSlack {
			return fmt.Errorf("match id %d has exact score %.4f below %.2f", m.ID, want, floor)
		}
		if d := m.Sim - want; d > 1e-6 || d < -1e-6 {
			return fmt.Errorf("match id %d reported sim %.6f, exact %.6f", m.ID, m.Sim, want)
		}
	}
	return nil
}

// checkNoResurrection fails when an answer names an id whose delete was
// acknowledged before the read was sent.
func checkNoResurrection(a queryAnswer, sentNs int64, deletedAckNs map[int]int64) error {
	for _, id := range a.ids() {
		if ack, ok := deletedAckNs[id]; ok && ack < sentNs {
			return fmt.Errorf("id %d returned %.1f ms after its delete was acknowledged", id, float64(sentNs-ack)/1e6)
		}
	}
	return nil
}

// checkContains verifies a just-added set queried back returns its id at
// similarity 1.0.
func checkContains(a queryAnswer, id int) error {
	for _, m := range a.Matches {
		if m.ID == id {
			if m.Sim < 1-simSlack {
				return fmt.Errorf("added set %d read back at sim %.4f, want 1.0", id, m.Sim)
			}
			return nil
		}
	}
	return fmt.Errorf("added set %d missing from its own read-back", id)
}

// checkBatchAnswer verifies a /v1/query_batch body against the expected
// per-set answers: result i must equal, match for match, the
// /v1/query {"all":true} answer for set i.
func checkBatchAnswer(body []byte, want [][]match) error {
	got, err := parseBatch(body, len(want))
	if err != nil {
		return err
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("batch result %d has %d matches, single query has %d", i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				return fmt.Errorf("batch result %d match %d is %+v, single query gives %+v", i, k, got[i][k], want[i][k])
			}
		}
	}
	return nil
}

// parseBatch decodes a /v1/query_batch body and checks it has one result
// list per set sent.
func parseBatch(body []byte, sets int) ([][]match, error) {
	var got struct {
		Results [][]match `json:"results"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, fmt.Errorf("malformed batch answer: %v", err)
	}
	if len(got.Results) != sets {
		return nil, fmt.Errorf("batch answered %d sets, sent %d", len(got.Results), sets)
	}
	return got.Results, nil
}
