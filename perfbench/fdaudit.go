package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fdnull/internal/chase"
	"fdnull/internal/discover"
	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/partition"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/testfds"
	"fdnull/internal/value"
)

// fd-audit: batch analysis of one null-bearing relation, the way the
// fdchase, fdcheck and fddiscover commands run it. One operation is one
// whole audit: chase.Run to the minimally incomplete instance, then
// eval.CheckAll (per-FD verdicts under both conventions) and
// discover.Run on that instance.
//
//	A B C D E F   planted: A -> B; A -> C; B -> D
//
// A is a group id (rows of a group tend to follow each other), B, C and
// D are functions of the group, E and F are noise. Nulls reuse a mark
// already used in the same group and column half of the time, so marks
// are shared without ever forcing a conflict. A group's first row holds
// all its constants, so the chase leaves no null on a planted FD's
// columns, while the nulls on E and F are forced by nothing and stay.
//
// CheckAll runs on the chased instance, not the raw one: on the raw
// relation its per-tuple evaluation enumerates the completions of every
// other null-bearing tuple and gives up ("completion set exceeds ...").
const (
	faRows      = 20000
	faGroups    = 2000
	faGroupBias = 0.6 // chance a row stays in the previous row's group
	faMaxLHS    = 2
	faRound     = 4 // audits per round
	// faWorkers sizes CheckAll's and discover's worker pools. On a
	// host whose vCPUs are shared with other machines, what a second
	// worker gains depends on whether a neighbour holds that vCPU: with
	// the default pools audits moved by 30% between runs of one batch.
	faWorkers = 1
)

type fdAudit struct {
	tr      *tracer
	r       *relation.Relation
	planted []fd.FD

	checkT, chaseT, discoverT []time.Duration
	last                      *chase.Result
}

func faScheme() (*schema.Scheme, []fd.FD) {
	s := schema.MustNew("AUDIT",
		[]string{"A", "B", "C", "D", "E", "F"},
		[]*schema.Domain{
			schema.IntDomain("grp", "a", faGroups),
			schema.IntDomain("bv", "b", faGroups),
			schema.IntDomain("cv", "c", 250),
			schema.IntDomain("dv", "d", 40),
			schema.IntDomain("ev", "e", 97),
			schema.IntDomain("fv", "f", 1000),
		})
	return s, fd.MustParseSet(s, "A -> B; A -> C; B -> D")
}

// faNullRate is each column's null share.
var faNullRate = [6]float64{0, 0.08, 0.08, 0.08, 0.1, 0.05}

func faRelation(seed int64) (*relation.Relation, []fd.FD) {
	s, planted := faScheme()
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(s)
	marks := map[[2]int][]int{} // (group, column) -> marks used there
	seen := map[string]bool{}   // rows so far, to keep the instance a set
	started := make([]bool, faGroups)
	g := rng.Intn(faGroups)
	for r.Len() < faRows {
		if rng.Float64() >= faGroupBias {
			g = rng.Intn(faGroups)
		}
		cells := []string{
			fmt.Sprintf("a%d", g+1), fmt.Sprintf("b%d", g+1), fmt.Sprintf("c%d", g%250+1),
			fmt.Sprintf("d%d", g%40+1), fmt.Sprintf("e%d", rng.Intn(97)+1), fmt.Sprintf("f%d", rng.Intn(1000)+1),
		}
		t := constTuple(cells)
		for col := 1; col < len(t); col++ {
			if rng.Float64() >= faNullRate[col] || (!started[g] && col <= 3) {
				continue
			}
			key := [2]int{g, col}
			if used := marks[key]; len(used) > 0 && rng.Intn(2) == 0 {
				t[col] = value.NewNull(used[rng.Intn(len(used))])
			} else {
				t[col] = r.FreshNull()
				marks[key] = append(marks[key], t[col].Mark())
			}
		}
		if k := t.String(); !seen[k] {
			seen[k] = true
			started[g] = true
			// Valid by construction; Insert's duplicate scan would make
			// the load quadratic.
			r.InsertUnchecked(t)
		}
	}
	return r, planted
}

func setupFDAudit(seed int64, e *env) (runner, error) {
	r, planted := faRelation(seed)
	return &fdAudit{tr: e.tr, r: r, planted: planted}, nil
}

func (w *fdAudit) round(m *meter) {
	for i := 0; i < faRound; i++ {
		w.audit(m)
	}
}

func (w *fdAudit) audit(m *meter) {
	// Each audit starts on a collected heap, as each of the commands it
	// stands for starts in a fresh process.
	runtime.GC()
	w.tr.nextOp()
	sp := w.tr.begin("fd-audit.audit")
	t0 := time.Now()
	s := w.tr.begin("chase.Run")
	res, err := chase.Run(w.r, w.planted, chase.Options{Mode: chase.Extended, Engine: chase.Congruence})
	w.tr.end(s)
	t1 := time.Now()
	if err == nil && !res.Consistent {
		// fdcheck stops here too: an unsatisfiable instance has no
		// minimally incomplete form to check or mine.
		err = errors.New("chase: planted FDs found unsatisfiable")
	}
	var batch *eval.BatchResult
	var found []fd.FD
	if err == nil {
		s = w.tr.begin("eval.CheckAll")
		batch = eval.CheckAll(w.planted, res.Relation, eval.CheckOptions{Workers: faWorkers})
		w.tr.end(s)
	}
	t2 := time.Now()
	if err == nil {
		s = w.tr.begin("discover.Run")
		found, err = discover.Run(res.Relation, discover.Options{MaxLHS: faMaxLHS, Convention: testfds.Weak, Workers: faWorkers})
		w.tr.end(s)
	}
	t3 := time.Now()
	if err == nil {
		err = checkAudit(w.planted, res, batch, found)
	}
	m.done(opRead, t3.Sub(t0), err)
	w.tr.end(sp)
	w.chaseT = append(w.chaseT, t1.Sub(t0))
	w.checkT = append(w.checkT, t2.Sub(t1))
	w.discoverT = append(w.discoverT, t3.Sub(t2))
	if res != nil {
		w.last = res
	}
}

// checkAudit checks one audit against what the generator planted and
// properties the methods must have: the chase finds the planted FDs
// satisfiable and leaves no null in a group that has a constant, every
// planted FD holds weakly (and, on the chased instance, strongly),
// every discovered FD passes a TEST-FDs scan, and the discovered set
// implies every planted FD.
func checkAudit(planted []fd.FD, res *chase.Result, batch *eval.BatchResult, found []fd.FD) error {
	if !res.Consistent {
		return fmt.Errorf("chase: planted FDs found unsatisfiable")
	}
	chased := res.Relation
	for _, f := range planted {
		if err := checkNoOpenNull(chased, f); err != nil {
			return err
		}
	}
	if err := batch.Err(); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	for _, sum := range batch.Summaries {
		if !sum.WeakHolds || !sum.StrongHolds {
			return fmt.Errorf("check: planted FD %v: weak %v, strong %v on the chased instance", sum.FD, sum.WeakHolds, sum.StrongHolds)
		}
	}
	if ok, v := testfds.Check(chased, found, testfds.Weak, testfds.Sorted); !ok {
		return fmt.Errorf("discover: a found FD fails TEST-FDs: %v", v)
	}
	for _, f := range planted {
		if !fd.Implies(found, f) {
			return fmt.Errorf("discover: planted FD %v not implied by the %d found", f, len(found))
		}
	}
	return nil
}

// checkNoOpenNull checks that in the chased instance no tuple keeps a
// null on f's right-hand side where another tuple agreeing with it on
// the constant determinant holds a constant there.
func checkNoOpenNull(chased *relation.Relation, f fd.FD) error {
	var err error
	chased.IndexOn(f.X).ForEachGroup(func(rows []int) bool {
		for _, a := range f.Y.Attrs() {
			var hasConst, hasNull bool
			for _, i := range rows {
				v := chased.Tuple(i)[a]
				hasConst = hasConst || v.IsConst()
				hasNull = hasNull || v.IsNull()
			}
			if hasConst && hasNull {
				err = fmt.Errorf("chase: a group of %v keeps a null on attribute %d beside a constant", f, a)
				return false
			}
		}
		return true
	})
	return err
}

func (w *fdAudit) finish(out metrics) error {
	if w.tr == nil {
		out.set("eval.check_s", median(seconds(w.checkT)), "s")
		out.set("chase.run_s", median(seconds(w.chaseT)), "s")
		out.set("discover.run_s", median(seconds(w.discoverT)), "s")
		return nil
	}
	if w.last == nil {
		return errors.New("no audit finished its chase")
	}
	out.set("chase.rule_applications", float64(w.last.Applications), "count")
	out.set("chase.passes", float64(w.last.Passes), "count")
	chased := w.last.Relation
	for rep := 0; rep < 5; rep++ {
		w.tr.nextOp()
		sp := w.tr.begin("partition.Build.all")
		for a := 0; a < chased.Scheme().Arity(); a++ {
			partition.Build(chased, schema.NewAttrSet(schema.Attr(a)), testfds.Weak)
		}
		w.tr.end(sp)
	}
	out.set("partition.build_ms", w.tr.medianUS("partition.Build.all")/1000, "ms")
	return nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func (w *fdAudit) close() error { return nil }
