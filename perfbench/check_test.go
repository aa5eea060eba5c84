package main

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"fdnull/internal/chase"
	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/store"
	"fdnull/internal/value"
	"fdnull/internal/workload"
)

// Each check must accept the right answer and refuse a corrupted one.

func TestCheckKVRead(t *testing.T) {
	row := kvRow(6, 3)
	good := []relation.Tuple{constTuple(row)}
	if err := checkKVRead(6, row, good, nil); err != nil {
		t.Fatalf("right answer refused: %v", err)
	}
	if err := checkKVRead(6, nil, nil, nil); err != nil {
		t.Fatalf("absent key refused: %v", err)
	}
	wrong := constTuple(kvRow(6, 4))
	for name, c := range map[string]struct {
		want        []string
		sure, maybe []relation.Tuple
	}{
		"stale payload":    {row, []relation.Tuple{wrong}, nil},
		"missing row":      {row, nil, nil},
		"row as maybe":     {row, nil, good},
		"extra row":        {row, []relation.Tuple{good[0], wrong}, nil},
		"deleted key read": {nil, good, nil},
		"null payload":     {row, []relation.Tuple{{good[0][0], value.NewNull(1), good[0][2]}}, nil},
	} {
		if checkKVRead(6, c.want, c.sure, c.maybe) == nil {
			t.Errorf("%s: corrupted answer accepted", name)
		}
	}
}

func TestCheckKVFinal(t *testing.T) {
	s, _, _ := workload.KV(kvBase + kvSpare)
	live := map[int]int{0: 0, 5: 7}
	good := relation.New(s)
	good.MustInsertRow(kvRow(0, 0)...)
	good.MustInsertRow(kvRow(5, 7)...)
	if err := checkKVFinal(live, good); err != nil {
		t.Fatalf("right contents refused: %v", err)
	}
	stale := relation.New(s)
	stale.MustInsertRow(kvRow(0, 0)...)
	stale.MustInsertRow(kvRow(5, 6)...)
	short := relation.New(s)
	short.MustInsertRow(kvRow(0, 0)...)
	extra := good.Clone()
	extra.MustInsertRow(kvRow(9, 1)...)
	for name, r := range map[string]*relation.Relation{"stale update": stale, "lost row": short, "undeleted row": extra} {
		if checkKVFinal(live, r) == nil {
			t.Errorf("%s: corrupted contents accepted", name)
		}
	}
}

func TestCheckNDVerdict(t *testing.T) {
	refusal := &store.TxnError{Op: 1, Err: &store.InconsistencyError{}}
	if checkNDVerdict(false, nil) != nil || checkNDVerdict(true, refusal) != nil {
		t.Fatal("expected verdicts refused")
	}
	if checkNDVerdict(true, nil) == nil {
		t.Error("clash committed: accepted")
	}
	if checkNDVerdict(false, refusal) == nil {
		t.Error("consistent txn refused: accepted")
	}
	if checkNDVerdict(true, errors.New("disk on fire")) == nil {
		t.Error("refusal for another cause: accepted")
	}
}

// ndFixture is a two-group bookkeeping, group 0 closed and group 3
// open, with the instance the store must hold for it.
func ndFixture(t *testing.T) ([]ndGroup, []fd.FD, *relation.Relation) {
	t.Helper()
	s, fds := ndScheme()
	groups := make([]ndGroup, 4)
	for g := range groups {
		groups[g] = ndGroup{g: g, open: g == 3, rows: map[int]ndRow{}}
	}
	r := relation.New(s)
	add := func(g, uid int, cells []string, stored relation.Tuple) {
		groups[g].add(uid, cells)
		r.InsertUnchecked(stored)
	}
	c0, c3 := ndConsts(0), ndConsts(3)
	add(0, 0, []string{"g1", c0[0], "-", c0[2], "-", "u1", "w1", "x1"},
		constTuple([]string{"g1", c0[0], c0[1], c0[2], c0[3], "u1", "w1", "x1"}))
	add(0, 1, []string{"g1", "-", c0[1], "-", c0[3], "u2", "-", "x2"},
		relation.Tuple{value.NewConst("g1"), value.NewConst(c0[0]), value.NewConst(c0[1]), value.NewConst(c0[2]),
			value.NewConst(c0[3]), value.NewConst("u2"), value.NewNull(9), value.NewConst("x2")})
	for uid := 2; uid < 4; uid++ {
		u := fmt.Sprintf("u%d", uid+1)
		add(3, uid, []string{"g4", c3[0], c3[1], "-", "-", u, "w1", "x1"},
			relation.Tuple{value.NewConst("g4"), value.NewConst(c3[0]), value.NewConst(c3[1]), value.NewNull(5),
				value.NewNull(6), value.NewConst(u), value.NewConst("w1"), value.NewConst("x1")})
	}
	return groups, fds, r
}

func TestCheckNDFinal(t *testing.T) {
	groups, fds, good := ndFixture(t)
	if err := checkNDFinal(groups, fds, good); err != nil {
		t.Fatalf("right instance refused: %v", err)
	}
	corrupt := map[string]func(r *relation.Relation){
		"null left beside a constant": func(r *relation.Relation) { r.SetCell(0, 2, value.NewNull(7)) },
		"wrong constant":              func(r *relation.Relation) { r.SetCell(0, 3, value.NewConst("d9")) },
		"open group nulls unshared":   func(r *relation.Relation) { r.SetCell(3, 3, value.NewNull(8)) },
		"lost row":                    func(r *relation.Relation) { r.Delete(1) },
		"unforced null filled":        func(r *relation.Relation) { r.SetCell(2, 4, value.NewConst("e1")) },
	}
	for name, f := range corrupt {
		r := good.Clone()
		f(r)
		if checkNDFinal(groups, fds, r) == nil {
			t.Errorf("%s: corrupted instance accepted", name)
		}
	}
}

func TestCheckNDRead(t *testing.T) {
	groups, _, inst := ndFixture(t)
	closed := &ndPred{g: 0, dv: ndConsts(0)[2]}
	other := &ndPred{g: 0, dv: "d9"}
	open := &ndPred{g: 3, dv: "d2"}
	tup := inst.Tuples()
	if err := checkNDRead(&groups[0], closed, tup[:2], nil); err != nil {
		t.Fatalf("closed group read refused: %v", err)
	}
	if err := checkNDRead(&groups[0], other, nil, nil); err != nil {
		t.Fatalf("empty read refused: %v", err)
	}
	if err := checkNDRead(&groups[3], open, nil, tup[2:]); err != nil {
		t.Fatalf("open group read refused: %v", err)
	}
	bad := tup[0].Clone()
	bad[4] = value.NewNull(3)
	for name, c := range map[string]struct {
		grp         *ndGroup
		pr          *ndPred
		sure, maybe []relation.Tuple
	}{
		"sure as maybe":      {&groups[0], closed, nil, tup[:2]},
		"row missing":        {&groups[0], closed, tup[:1], nil},
		"unsubstituted null": {&groups[0], closed, []relation.Tuple{bad, tup[1]}, nil},
		"maybe as sure":      {&groups[3], open, tup[2:], nil},
		"answer to a miss":   {&groups[0], other, tup[:1], nil},
	} {
		if checkNDRead(c.grp, c.pr, c.sure, c.maybe) == nil {
			t.Errorf("%s: corrupted answer accepted", name)
		}
	}
}

func TestCheckSameViews(t *testing.T) {
	_, _, inst := ndFixture(t)
	a := []relation.View{inst.View()}
	if err := checkSameViews(a, []relation.View{inst.Clone().View()}); err != nil {
		t.Fatalf("identical instance refused: %v", err)
	}
	renamed := inst.Clone()
	renamed.SetCell(2, 3, value.NewNull(42))
	if checkSameViews(a, []relation.View{renamed.View()}) == nil {
		t.Error("renamed mark accepted")
	}
	short := inst.Clone()
	short.Delete(0)
	if checkSameViews(a, []relation.View{short.View()}) == nil {
		t.Error("lost tuple accepted")
	}
}

func TestCheckWireRead(t *testing.T) {
	row := []string{"k3", "a3", "b3"}
	if err := checkWireRead(2, row, wireResp{OK: true, Sure: [][]string{row}}); err != nil {
		t.Fatalf("right reply refused: %v", err)
	}
	for name, resp := range map[string]wireResp{
		"error":         {OK: false, Error: "boom"},
		"wrong payload": {OK: true, Sure: [][]string{{"k3", "a4", "b3"}}},
		"as maybe":      {OK: true, Maybe: [][]string{row}},
		"empty":         {OK: true},
		"duplicated":    {OK: true, Sure: [][]string{row, row}},
	} {
		if checkWireRead(2, row, resp) == nil {
			t.Errorf("%s: corrupted reply accepted", name)
		}
	}
}

func TestCheckAudit(t *testing.T) {
	r, planted := faRelation(1)
	res, err := chase.Run(r, planted, chase.Options{Mode: chase.Extended, Engine: chase.Congruence})
	if err != nil {
		t.Fatal(err)
	}
	batch := eval.CheckAll(planted, res.Relation, eval.CheckOptions{})
	found := []fd.FD{planted[0], planted[1], planted[2]}
	if err := checkAudit(planted, res, batch, found); err != nil {
		t.Fatalf("right audit refused: %v", err)
	}
	if checkAudit(planted, res, batch, found[:2]) == nil {
		t.Error("discovered set missing a planted FD accepted")
	}
	wrongFD := fd.MustParse(r.Scheme(), "E -> F")
	if checkAudit(planted, res, batch, append(found, wrongFD)) == nil {
		t.Error("discovered FD that does not hold accepted")
	}
	open := *res
	open.Relation = res.Relation.Clone()
	for i, tup := range open.Relation.Tuples() {
		if tup[1].IsConst() {
			open.Relation.SetCell(i, 1, value.NewNull(1<<20))
			break
		}
	}
	if checkAudit(planted, &open, batch, found) == nil {
		t.Error("chased instance with a null beside a constant accepted")
	}
	inconsistent := *res
	inconsistent.Consistent = false
	if checkAudit(planted, &inconsistent, batch, found) == nil {
		t.Error("inconsistent chase accepted")
	}
	weak := *batch
	weak.Summaries = append([]eval.FDSummary(nil), batch.Summaries...)
	weak.Summaries[0].WeakHolds = false
	if checkAudit(planted, res, &weak, found) == nil {
		t.Error("planted FD failing the check accepted")
	}
}

// A run on a system whose state was changed behind the bookkeeping's
// back must fail operations or its end-state check.

func TestKVMixedRunFailsOnTamperedStore(t *testing.T) {
	w, err := setupKVMixed(1, &env{dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	kv := w.(*kvMixed)
	m := &meter{}
	kv.round(m)
	if m.failed != 0 || kv.finish(metrics{}) != nil {
		t.Fatalf("clean round: %d failed (%s)", m.failed, m.firstFail)
	}
	for k := range 200 {
		if a, ok := kv.live[k]; ok {
			if err := kv.st.UpdateTuple(constTuple(kvRow(k, a)), 1, value.NewConst(fmt.Sprintf("a%d", (a+1)%kvPayload+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	kv.round(m)
	if m.failed == 0 && kv.finish(metrics{}) == nil {
		t.Fatal("tampered store passed")
	}
}

func TestNullDurableRunFailsOnTamperedStore(t *testing.T) {
	w, err := setupNullDurable(1, &env{dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	nd := w.(*nullDurable)
	defer nd.close()
	m := &meter{}
	nd.round(m)
	if m.failed != 0 {
		t.Fatalf("clean round: %d failed (%s)", m.failed, m.firstFail)
	}
	tampered := map[int]bool{}
	for _, pr := range nd.preds {
		grp := &nd.groups[pr.g]
		if !grp.open && !tampered[pr.g] {
			tampered[pr.g] = true
			if err := nd.st.DeleteTuple(constTuple(grp.rows[grp.pool[0]])); err != nil {
				t.Fatal(err)
			}
		}
	}
	nd.round(m)
	if m.failed == 0 {
		t.Fatal("tampered store passed")
	}
}

func TestWireReadRunFailsOnTamperedDaemon(t *testing.T) {
	w, err := setupWireRead(1, &env{dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	wr := w.(*wireRead)
	defer wr.close()
	m := &meter{}
	wr.round(m)
	if m.failed != 0 {
		t.Fatalf("clean round: %d failed (%s)", m.failed, m.firstFail)
	}
	row := wr.row(wr.perm[0]) // the most popular key
	other := "a64"
	if row[1] == other {
		other = "a63"
	}
	if err := wr.call(map[string]any{"op": "update", "match": row, "attr": "A", "value": other}); err != nil {
		t.Fatal(err)
	}
	wr.round(m)
	if m.failed == 0 {
		t.Fatal("tampered daemon passed")
	}
}

func TestFDAuditRunFailsOnTamperedRelation(t *testing.T) {
	w, err := setupFDAudit(1, &env{dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fa := w.(*fdAudit)
	m := &meter{}
	fa.audit(m)
	if m.failed != 0 {
		t.Fatalf("clean audit failed: %s", m.firstFail)
	}
	// Move the first row into a group that holds another B constant:
	// A -> B now clashes.
	for j, tup := range fa.r.Tuples() {
		if j > 0 && tup[1].IsConst() {
			b := "b1"
			if tup[1].Const() == b {
				b = "b2"
			}
			fa.r.SetCell(0, 0, tup[0])
			fa.r.SetCell(0, 1, value.NewConst(b))
			break
		}
	}
	fa.audit(m)
	if m.failed == 0 {
		t.Fatal("tampered relation passed")
	}
}

func TestMeterCountsFailures(t *testing.T) {
	m := &meter{timing: true}
	m.done(opRead, 1, nil)
	m.done(opRefused, 2, errors.New("wrong answer"))
	if m.attempted != 2 || m.failed != 1 || m.firstFail != "wrong answer" ||
		len(m.lat[opRead]) != 1 || len(m.lat[opRefused]) != 1 {
		t.Fatalf("meter = %+v", m)
	}
}

// fixedRunner runs one round of 100 reads of 1-100µs, 10 writes of 1ms
// and one refused txn of 50ms.
type fixedRunner struct{}

func (fixedRunner) round(m *meter) {
	for i := 1; i <= 100; i++ {
		m.done(opRead, time.Duration(i)*time.Microsecond, nil)
	}
	for i := 0; i < 10; i++ {
		m.done(opWrite, time.Millisecond, nil)
	}
	m.done(opRefused, 50*time.Millisecond, nil)
}

func (fixedRunner) finish(metrics) error { return nil }
func (fixedRunner) close() error         { return nil }

func TestMeasureTakesPercentilesOverReadsOnly(t *testing.T) {
	p, err := measure(fixedRunner{}, &meter{}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r := p.rounds[0]
	if r.ops != 111 || r.readP50 != 50*time.Microsecond || r.readP99 != 99*time.Microsecond {
		t.Fatalf("round = %+v, want 111 ops, read p50 50µs, read p99 99µs", r)
	}
	if len(p.writes) != 10*len(p.rounds) || len(p.refusals) != len(p.rounds) {
		t.Fatalf("pooled %d writes and %d refusals over %d rounds", len(p.writes), len(p.refusals), len(p.rounds))
	}
}
