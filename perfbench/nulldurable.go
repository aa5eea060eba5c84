package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/store"
	"fdnull/internal/testfds"
)

// null-durable: a durable sharded store over a null-bearing scheme, the
// store-maintenance shape of workload.WriteHeavy with the group
// attribute G in every left-hand side, so the store can shard on G:
//
//	G B C D E U1 U2 U3   with   G -> B,C; G,B -> D; G,C -> E
//
// Every group has one constant per determined column, except the open
// groups, whose D and E columns hold no constant at all: their nulls
// are forced by no FD and stay nulls (one shared mark per group and
// column, from the NS-rule). U2 is null in a share of the base rows,
// also forced by nothing.
const (
	ndShards    = 4
	ndGroups    = 256
	ndPerGroup  = 16 // base rows per group; every txn keeps group sizes fixed
	ndSpareUIDs = 1024
	ndRound     = 2000 // operations per round; 1,500 reads leave 15 beyond the read p99
	ndTxns      = 500  // of them txns, the rest group reads
	// ndRefused txns per round put a constant against their group's own
	// and must be refused: one txn in 25. No caller of the store and no
	// recorded traffic gives a refusal rate; this keeps refusals a small
	// share of the writes. Refused txns count in ops_per_s and are timed
	// apart from accepted commits, never in the read percentiles.
	ndRefused = 20
	ndPreds   = 64 // distinct read predicates, well inside the result cache
	// ndGroupCommit is the durable setting the repository's README
	// documents: every record written at once, one fsync per 64 commits
	// of a shard. Like every durable caller in the repository, the
	// workload sets no automatic checkpoint, so the reopen after the
	// window replays the whole log.
	ndGroupCommit = 64
)

// ndRow is the bookkeeping of one row: its cells as the store must hold
// them after NS substitution. An empty cell is a null.
type ndRow []string

type ndGroup struct {
	g    int
	open bool
	rows map[int]ndRow // uid -> row
	pool []int         // uids of rows that are all constants, so deletable by content
}

type ndTxnRow struct {
	g      int
	cells  []string // as inserted, "-" for nulls
	uid    int
	delUID int   // the row deleted from the same group in the same txn
	del    ndRow // its all-constant cells
}

// ndOp is one txn: a row inserted into and one deleted from each of its
// groups.
type ndOp struct {
	rows    []ndTxnRow
	refused bool // the generator built in a constant clash
}

type ndPred struct {
	g  int
	dv string
	p  query.Pred
}

type nullDurable struct {
	tr     *tracer
	dir    string
	s      *schema.Scheme
	fds    []fd.FD
	sopts  store.ShardedOptions
	dopts  store.DurableOptions
	st     *store.Sharded
	rng    *rand.Rand
	groups []ndGroup
	spare  []int
	preds  []ndPred

	commits  int     // accepted txns
	syncs0   uint64  // Health().Syncs summed at set-up end
	segBytes float64 // traced: log bytes appended by commits
}

func ndScheme() (*schema.Scheme, []fd.FD) {
	s := schema.MustNew("W8",
		[]string{"G", "B", "C", "D", "E", "U1", "U2", "U3"},
		[]*schema.Domain{
			schema.IntDomain("group", "g", ndGroups),
			schema.IntDomain("bval", "b", ndGroups),
			schema.IntDomain("cval", "c", ndGroups),
			schema.IntDomain("dval", "d", 13),
			schema.IntDomain("eval", "e", 11),
			schema.IntDomain("uid", "u", ndGroups*ndPerGroup+ndSpareUIDs),
			schema.IntDomain("wval", "w", 37),
			schema.IntDomain("xval", "x", 17),
		})
	return s, fd.MustParseSet(s, "G -> B,C; G,B -> D; G,C -> E")
}

// group g's constants for B, C, D and E.
func ndConsts(g int) [4]string {
	return [4]string{fmt.Sprintf("b%d", g+1), fmt.Sprintf("c%d", g+1), fmt.Sprintf("d%d", g%13+1), fmt.Sprintf("e%d", g%11+1)}
}

func setupNullDurable(seed int64, e *env) (runner, error) {
	s, fds := ndScheme()
	w := &nullDurable{
		tr:     e.tr,
		dir:    filepath.Join(e.dir, "store"),
		s:      s,
		fds:    fds,
		sopts:  store.ShardedOptions{Shards: ndShards, Key: schema.NewAttrSet(0)},
		dopts:  store.DurableOptions{GroupCommit: ndGroupCommit},
		rng:    rand.New(rand.NewSource(seed)),
		groups: make([]ndGroup, ndGroups),
	}
	st, err := store.OpenShardedDurable(w.dir, s, fds, w.sopts, w.dopts)
	if err != nil {
		return nil, err
	}
	w.st = st
	if err := w.preload(); err != nil {
		st.Close()
		return nil, err
	}
	w.syncs0 = ndSyncs(st)
	return w, nil
}

// preload loads every group in one txn, its nulls drawn from the seed,
// and draws the read predicates.
func (w *nullDurable) preload() error {
	uid := 0
	for g := range w.groups {
		grp := &w.groups[g]
		grp.g, grp.open = g, g%4 == 3
		grp.rows = make(map[int]ndRow, ndPerGroup)
		tx := w.st.BeginTxn()
		c := ndConsts(g)
		for j := 0; j < ndPerGroup; j++ {
			cells := []string{fmt.Sprintf("g%d", g+1), c[0], c[1], c[2], c[3],
				fmt.Sprintf("u%d", uid+1), fmt.Sprintf("w%d", uid%37+1), fmt.Sprintf("x%d", uid%17+1)}
			for col := 1; col <= 4; col++ {
				// The first row carries every constant of a closed group.
				if (j > 0 && w.rng.Intn(10) < 4) || (grp.open && col >= 3) {
					cells[col] = "-"
				}
			}
			if j > 0 && w.rng.Intn(10) == 0 {
				cells[6] = "-"
			}
			if err := tx.InsertRow(cells...); err != nil {
				return err
			}
			grp.add(uid, cells)
			uid++
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("preload group %d: %w", g, err)
		}
	}
	for u := uid; u < uid+ndSpareUIDs; u++ {
		w.spare = append(w.spare, u)
	}
	for i := 0; i < ndPreds; i++ {
		g := w.rng.Intn(ndGroups)
		dv := ndConsts(g)[2]
		if i%8 == 7 {
			dv = fmt.Sprintf("d%d", (g+1)%13+1) // a constant the group does not hold
		}
		p := query.And{P: query.Eq{Attr: 0, Const: fmt.Sprintf("g%d", g+1)}, Q: query.Eq{Attr: 3, Const: dv}}
		w.preds = append(w.preds, ndPred{g: g, dv: dv, p: p})
	}
	return nil
}

// add records an inserted row: the cells the store must hold once the
// NS-rule has substituted the group's constants for its nulls.
func (grp *ndGroup) add(uid int, cells []string) {
	c := ndConsts(grp.g)
	row := slices.Clone(cells)
	for col := 1; col <= 4; col++ {
		row[col] = c[col-1]
		if grp.open && col >= 3 {
			row[col] = ""
		}
	}
	if row[6] == "-" {
		row[6] = ""
	}
	grp.rows[uid] = row
	if !grp.open && row[6] != "" {
		grp.pool = append(grp.pool, uid)
	}
}

func (grp *ndGroup) remove(uid int) {
	delete(grp.rows, uid)
	i := slices.Index(grp.pool, uid)
	grp.pool[i] = grp.pool[len(grp.pool)-1]
	grp.pool = grp.pool[:len(grp.pool)-1]
}

func ndSyncs(st *store.Sharded) uint64 {
	var n uint64
	for _, h := range st.ShardHealth() {
		n += h.Syncs
	}
	return n
}

// closedGroup draws a group with a constant in every determined column.
func (w *nullDurable) closedGroup() int {
	for {
		if g := w.rng.Intn(ndGroups); !w.groups[g].open {
			return g
		}
	}
}

// round runs the next round: ndRound operations in a seed-drawn order,
// ndTxns of them txns, ndRefused of those built to be refused. Each txn
// is drawn just before it runs, from the bookkeeping as it stands.
func (w *nullDurable) round(m *meter) {
	kinds := make([]int, ndRound) // 0 read, 1 txn, 2 refused txn
	for i := 0; i < ndTxns; i++ {
		kinds[i] = 1
		if i < ndRefused {
			kinds[i] = 2
		}
	}
	w.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for _, k := range kinds {
		w.tr.nextOp()
		if k == 0 {
			w.read(m, &w.preds[w.rng.Intn(len(w.preds))])
			continue
		}
		op := w.drawTxn(k == 2)
		w.txn(m, &op)
		w.apply(&op)
	}
}

// drawTxn draws a txn over two closed groups, usually on two shards: in
// each it inserts a row with nulls the group's constants must fill and
// deletes an all-constant row of that group, so group sizes never
// drift. A refused txn's second row puts a D constant against the
// group's own; the store must reject the whole write-set.
func (w *nullDurable) drawTxn(refused bool) ndOp {
	op := ndOp{refused: refused}
	g1 := w.closedGroup()
	g2 := w.closedGroup()
	for g2 == g1 {
		g2 = w.closedGroup()
	}
	for i, g := range []int{g1, g2} {
		uid := w.spare[0]
		w.spare = w.spare[1:]
		c := ndConsts(g)
		cells := []string{fmt.Sprintf("g%d", g+1), c[0], c[1], c[2], c[3],
			fmt.Sprintf("u%d", uid+1), fmt.Sprintf("w%d", uid%37+1), fmt.Sprintf("x%d", uid%17+1)}
		for col := 1; col <= 4; col++ {
			if w.rng.Intn(2) == 0 {
				cells[col] = "-"
			}
		}
		if refused && i == 1 {
			cells[1] = c[0]
			cells[3] = fmt.Sprintf("d%d", (g+1)%13+1)
		}
		grp := &w.groups[g]
		del := grp.pool[w.rng.Intn(len(grp.pool))]
		op.rows = append(op.rows, ndTxnRow{g: g, cells: cells, uid: uid, delUID: del, del: grp.rows[del]})
	}
	return op
}

// apply updates the bookkeeping with the txn's expected effect.
func (w *nullDurable) apply(op *ndOp) {
	for _, r := range op.rows {
		if op.refused {
			w.spare = append(w.spare, r.uid)
			continue
		}
		grp := &w.groups[r.g]
		grp.add(r.uid, r.cells)
		grp.remove(r.delUID)
		w.spare = append(w.spare, r.delUID)
	}
}

func (w *nullDurable) read(m *meter, pr *ndPred) {
	sp := w.tr.begin("null-durable.read")
	t0 := time.Now()
	inner := w.tr.begin("store.Sharded.SelectTuples")
	sure, maybe := w.st.SelectTuples(pr.p, query.Options{})
	w.tr.end(inner)
	d := time.Since(t0)
	m.done(opRead, d, checkNDRead(&w.groups[pr.g], pr, sure, maybe))
	w.tr.end(sp)
}

// checkNDRead checks a group read G = g ∧ D = dv: the whole group as
// sure answers when its D constant is dv, as maybe answers when the
// group has no D constant, and nothing otherwise.
func checkNDRead(grp *ndGroup, pr *ndPred, sure, maybe []relation.Tuple) error {
	var wantSure, wantMaybe int
	switch {
	case grp.open:
		wantMaybe = len(grp.rows)
	case ndConsts(pr.g)[2] == pr.dv:
		wantSure = len(grp.rows)
	}
	if len(sure) != wantSure || len(maybe) != wantMaybe {
		return fmt.Errorf("read g%d D=%s: %d sure, %d maybe; want %d, %d",
			pr.g+1, pr.dv, len(sure), len(maybe), wantSure, wantMaybe)
	}
	for _, t := range append(sure, maybe...) {
		if err := checkNDTuple(grp, t); err != nil {
			return fmt.Errorf("read g%d D=%s: %w", pr.g+1, pr.dv, err)
		}
	}
	return nil
}

// checkNDTuple checks one stored tuple against its bookkeeping row:
// constants where the row has them, nulls where it has none.
func checkNDTuple(grp *ndGroup, t relation.Tuple) error {
	uid := 0
	if !t[5].IsConst() {
		return fmt.Errorf("tuple %v: no uid", t)
	}
	fmt.Sscanf(t[5].Const(), "u%d", &uid)
	want, ok := grp.rows[uid-1]
	if !ok {
		return fmt.Errorf("tuple %v: not in its group", t)
	}
	for col, c := range want {
		v := t[col]
		if (c == "" && !v.IsNull()) || (c != "" && (!v.IsConst() || v.Const() != c)) {
			return fmt.Errorf("tuple %v: column %d holds %v, want %q", t, col, v, c)
		}
	}
	return nil
}

func (w *nullDurable) txn(m *meter, op *ndOp) {
	sp := w.tr.begin("null-durable.txn")
	var before map[string]int64
	if w.tr != nil {
		before = segmentSizes(w.dir)
	}
	t0 := time.Now()
	tx := w.st.BeginTxn()
	var err error
	for _, r := range op.rows {
		if err = tx.InsertRow(r.cells...); err != nil {
			break
		}
		if err = tx.Delete(constTuple(r.del)); err != nil {
			break
		}
	}
	if err == nil {
		inner := w.tr.begin("store.ShardedTxn.Commit")
		err = tx.Commit()
		w.tr.end(inner)
	} else {
		tx.Rollback()
	}
	d := time.Since(t0)
	check := checkNDVerdict(op.refused, err)
	if check == nil && !op.refused {
		w.commits++
		if w.tr != nil {
			w.segBytes += float64(grownBytes(before, segmentSizes(w.dir)))
			if w.commits%8 == 0 {
				w.probeDeltaBatch(op)
			}
		}
	}
	kind := opWrite
	if op.refused {
		kind = opRefused
	}
	m.done(kind, d, check)
	w.tr.end(sp)
}

// checkNDVerdict checks a commit's outcome against the generator's
// verdict: refused exactly when it built in a constant clash.
func checkNDVerdict(refused bool, err error) error {
	switch {
	case refused && err == nil:
		return errors.New("txn with a constant clash was committed")
	case refused && !errors.Is(err, store.ErrInconsistent):
		return fmt.Errorf("txn with a constant clash failed otherwise: %w", err)
	case !refused && err != nil:
		return fmt.Errorf("consistent txn refused: %w", err)
	}
	return nil
}

// probeDeltaBatch times eval.CheckDeltaBatch for a committed txn's rows
// on a copy of its first group's shard, indexes built beforehand.
func (w *nullDurable) probeDeltaBatch(op *ndOp) {
	r := op.rows[0]
	si, err := w.st.ShardOf(constTuple(r.cells)) // routing reads only G
	if err != nil {
		return
	}
	rel := w.st.Shard(si).Snapshot().Materialize()
	for _, f := range w.fds {
		rel.IndexOn(f.X)
	}
	var seeds []int
	for i, t := range rel.Tuples() {
		for _, tr := range op.rows {
			if t[5].Const() == fmt.Sprintf("u%d", tr.uid+1) {
				seeds = append(seeds, i)
			}
		}
	}
	sp := w.tr.begin("eval.CheckDeltaBatch")
	eval.CheckDeltaBatch(w.fds, rel, seeds)
	w.tr.end(sp)
}

func segmentSizes(dir string) map[string]int64 {
	out := map[string]int64{}
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".seg") {
			if info, err := d.Info(); err == nil {
				out[path] = info.Size()
			}
		}
		return nil
	})
	return out
}

// grownBytes is how many bytes the segments grew by from before to after.
func grownBytes(before, after map[string]int64) int64 {
	var n int64
	for p, sz := range after {
		if sz > before[p] {
			n += sz - before[p]
		}
	}
	return n
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// checkNDFinal checks the whole instance: every row as its bookkeeping
// says, every group's nulls in a column sharing one mark, nothing
// missing, and the instance weakly satisfying the FDs as a minimally
// incomplete instance.
func checkNDFinal(groups []ndGroup, fds []fd.FD, inst *relation.Relation) error {
	want := 0
	for _, grp := range groups {
		want += len(grp.rows)
	}
	if inst.Len() != want {
		return fmt.Errorf("final instance: %d rows, want %d", inst.Len(), want)
	}
	marks := map[[2]int]int{} // (group, column) -> the shared mark
	for _, t := range inst.Tuples() {
		g := 0
		fmt.Sscanf(t[0].Const(), "g%d", &g)
		if g < 1 || g > len(groups) {
			return fmt.Errorf("final instance: tuple %v in no group", t)
		}
		if err := checkNDTuple(&groups[g-1], t); err != nil {
			return fmt.Errorf("final instance: %w", err)
		}
		for col := 1; col <= 4; col++ {
			if !t[col].IsNull() {
				continue
			}
			key := [2]int{g, col}
			if mk, ok := marks[key]; ok && mk != t[col].Mark() {
				return fmt.Errorf("final instance: group g%d column %d holds nulls ⊥%d and ⊥%d", g, col, mk, t[col].Mark())
			}
			marks[key] = t[col].Mark()
		}
	}
	if ok, v := testfds.WeakSatisfiedMinimallyIncomplete(inst, fds); !ok {
		return fmt.Errorf("final instance is not weakly satisfied as minimally incomplete: %v", v)
	}
	return nil
}

// checkSameViews checks that two cuts of the store agree tuple for tuple,
// marks included.
func checkSameViews(a, b []relation.View) error {
	if len(a) != len(b) {
		return fmt.Errorf("reopened store has %d shards, want %d", len(b), len(a))
	}
	for s := range a {
		if a[s].Len() != b[s].Len() {
			return fmt.Errorf("reopened shard %d: %d tuples, want %d", s, b[s].Len(), a[s].Len())
		}
		for i := 0; i < a[s].Len(); i++ {
			ta, tb := a[s].Tuple(i), b[s].Tuple(i)
			for c := range ta {
				if !ta[c].Identical(tb[c]) {
					return fmt.Errorf("reopened shard %d tuple %d: %v, want %v", s, i, tb, ta)
				}
			}
		}
	}
	return nil
}

func (w *nullDurable) finish(out metrics) error {
	if err := checkNDFinal(w.groups, w.fds, w.st.Snapshot()); err != nil {
		return err
	}
	if w.tr != nil {
		out.set("store.commit_us", w.tr.medianUS("store.ShardedTxn.Commit"), "us")
		out.set("wal.syncs_per_commit", float64(ndSyncs(w.st)-w.syncs0)/float64(w.commits), "count")
		out.set("wal.bytes_per_commit", w.segBytes/float64(w.commits), "B")
		out.set("eval.check_delta_batch_us", w.tr.medianUS("eval.CheckDeltaBatch"), "us")
		w.tr.nextOp()
		sp := w.tr.begin("store.Sharded.Checkpoint")
		err := w.st.Checkpoint()
		w.tr.end(sp)
		if err != nil {
			return err
		}
		out.set("wal.checkpoint_ms", w.tr.medianUS("store.Sharded.Checkpoint")/1000, "ms")
	}
	before := w.st.SnapshotAll()
	rows := w.st.Len()
	var replay uint64 // the records the reopen below replays
	for _, h := range w.st.ShardHealth() {
		replay += h.NextSeq - h.CheckpointSeq
	}
	st := w.st
	w.st = nil
	if err := st.Close(); err != nil {
		return err
	}
	bytes := dirBytes(w.dir)
	t0 := time.Now()
	re, err := store.OpenShardedDurable(w.dir, w.s, w.fds, w.sopts, w.dopts)
	recover := time.Since(t0)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	w.st = re
	if w.tr == nil {
		out.set("store.recover_s", recover.Seconds(), "s")
		out.set("wal.replay_records", float64(replay), "count")
		out.set("store.disk_bytes_per_row", float64(bytes)/float64(rows), "B")
	}
	return checkSameViews(before, re.SnapshotAll())
}

func (w *nullDurable) close() error {
	if w.st == nil {
		return nil
	}
	return w.st.Close()
}
