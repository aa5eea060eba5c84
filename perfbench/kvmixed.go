package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/store"
	"fdnull/internal/value"
	"fdnull/internal/workload"
)

// kv-mixed: the in-process sharded store over workload.KV, in its
// default configuration, under a closed-loop read/write mix.
const (
	kvShards = 8
	kvBase   = 20000 // keys loaded at set-up; the population stays at this size
	// kvSpare keys beyond the base serve the inserts. A deleted key goes
	// back to the spare queue and is inserted again much later, so the
	// key domain stays bounded however long a run lasts.
	kvSpare   = 1024
	kvPoolCap = 256 // most keys a run has inserted and not yet deleted
	// kvRound operations per round: 70% reads, 10% each write kind.
	// 1,050 reads leave ten beyond the round's read p99.
	kvRound   = 1500
	kvReads   = 1050
	kvWrites  = 150 // of each of insert, delete and update
	kvPayload = 64  // size of the A domain updates draw from
)

type kvKind uint8

const (
	kvRead kvKind = iota
	kvInsert
	kvDelete
	kvUpdate
)

// kvOp is one planned operation with the answer it must get.
type kvOp struct {
	kind  kvKind
	key   int
	row   []string       // read: the live row, nil when the key is absent; insert: the row
	match relation.Tuple // update, delete: the committed tuple
	val   value.V        // update: the new A value
}

type kvMixed struct {
	tr    *tracer
	st    *store.Sharded
	rng   *rand.Rand
	live  map[int]int // live key -> index of its A value
	pool  []int       // keys this run inserted and has not deleted
	spare []int       // FIFO of absent keys beyond the base
	ops   []kvOp
}

func setupKVMixed(seed int64, e *env) (runner, error) {
	s, fds, row := workload.KV(kvBase + kvSpare)
	st, err := store.NewSharded(s, fds, store.ShardedOptions{Shards: kvShards, Key: schema.NewAttrSet(0)})
	if err != nil {
		return nil, err
	}
	w := &kvMixed{
		tr:   e.tr,
		st:   st,
		rng:  rand.New(rand.NewSource(seed)),
		live: make(map[int]int, kvBase+kvPoolCap),
	}
	for k := 0; k < kvBase; k++ {
		if err := st.InsertRow(row(k)...); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
		w.live[k] = k % kvPayload
	}
	for k := kvBase; k < kvBase+kvSpare; k++ {
		w.spare = append(w.spare, k)
	}
	return w, nil
}

// kvRow is key k's row with payload index a in column A.
func kvRow(k, a int) []string {
	return []string{fmt.Sprintf("k%d", k+1), fmt.Sprintf("a%d", a+1), fmt.Sprintf("b%d", k%kvPayload+1)}
}

func constTuple(cells []string) relation.Tuple {
	t := make(relation.Tuple, len(cells))
	for i, c := range cells {
		t[i] = value.NewConst(c)
	}
	return t
}

// plan draws the next round from the seed: a shuffled multiset of
// kvRound kinds, reordered so that a delete always finds a key this run
// inserted and the pool stays under its cap. Every round inserts as
// many keys as it deletes, so the population never drifts. Each op's
// expected answer is worked out here, from the plan's own bookkeeping.
func (w *kvMixed) plan() {
	kinds := make([]kvKind, 0, kvRound)
	for i := 0; i < kvReads; i++ {
		kinds = append(kinds, kvRead)
	}
	for i := 0; i < kvWrites; i++ {
		kinds = append(kinds, kvInsert, kvDelete, kvUpdate)
	}
	w.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	pool := len(w.pool)
	for i, k := range kinds {
		switch {
		case k == kvDelete && pool == 0:
			j := i + slices.Index(kinds[i:], kvInsert)
			kinds[i], kinds[j] = kinds[j], kinds[i]
		case k == kvInsert && pool >= kvPoolCap:
			j := i + slices.Index(kinds[i:], kvDelete)
			kinds[i], kinds[j] = kinds[j], kinds[i]
		}
		if kinds[i] == kvInsert {
			pool++
		} else if kinds[i] == kvDelete {
			pool--
		}
	}
	w.ops = w.ops[:0]
	for _, k := range kinds {
		op := kvOp{kind: k}
		switch k {
		case kvRead:
			op.key = w.rng.Intn(kvBase + kvSpare)
			if a, ok := w.live[op.key]; ok {
				op.row = kvRow(op.key, a)
			}
		case kvInsert:
			op.key = w.spare[0]
			w.spare = w.spare[1:]
			w.live[op.key] = op.key % kvPayload
			w.pool = append(w.pool, op.key)
			op.row = kvRow(op.key, op.key%kvPayload)
		case kvDelete:
			i := w.rng.Intn(len(w.pool))
			op.key = w.pool[i]
			w.pool[i] = w.pool[len(w.pool)-1]
			w.pool = w.pool[:len(w.pool)-1]
			op.match = constTuple(kvRow(op.key, w.live[op.key]))
			delete(w.live, op.key)
			w.spare = append(w.spare, op.key)
		case kvUpdate:
			op.key = w.liveKey()
			old := w.live[op.key]
			a := (old + 1 + w.rng.Intn(kvPayload-1)) % kvPayload
			op.match = constTuple(kvRow(op.key, old))
			op.val = value.NewConst(fmt.Sprintf("a%d", a+1))
			w.live[op.key] = a
		}
		w.ops = append(w.ops, op)
	}
}

// liveKey draws a live key: a base key, or one of the run's inserts.
func (w *kvMixed) liveKey() int {
	for {
		k := w.rng.Intn(kvBase + len(w.pool))
		if k >= kvBase {
			k = w.pool[k-kvBase]
		}
		if _, ok := w.live[k]; ok {
			return k
		}
	}
}

func (w *kvMixed) round(m *meter) {
	w.plan()
	for i := range w.ops {
		op := &w.ops[i]
		w.tr.nextOp()
		if op.kind == kvRead {
			w.read(m, op)
			continue
		}
		var err error
		var name string
		sp := w.tr.begin("kv-mixed.write")
		t0 := time.Now()
		switch op.kind {
		case kvInsert:
			name = "store.Sharded.InsertRow"
			inner := w.tr.begin(name)
			err = w.st.InsertRow(op.row...)
			w.tr.end(inner)
		case kvDelete:
			name = "store.Sharded.DeleteTuple"
			inner := w.tr.begin(name)
			err = w.st.DeleteTuple(op.match)
			w.tr.end(inner)
		case kvUpdate:
			name = "store.Sharded.UpdateTuple"
			inner := w.tr.begin(name)
			err = w.st.UpdateTuple(op.match, 1, op.val)
			w.tr.end(inner)
		}
		d := time.Since(t0)
		if err != nil {
			err = fmt.Errorf("%s key %d: %w", name, op.key, err)
		}
		m.done(opWrite, d, err)
		w.tr.end(sp)
	}
}

// cacheCounts is every shard's query-cache hits+misses and misses.
func cacheCounts(st *store.Sharded) (touched, misses []uint64) {
	for i := 0; i < st.NumShards(); i++ {
		h, mi := st.Shard(i).QueryCacheStats()
		touched = append(touched, h+mi)
		misses = append(misses, mi)
	}
	return touched, misses
}

func (w *kvMixed) read(m *meter, op *kvOp) {
	sp := w.tr.begin("kv-mixed.read")
	var touched0, misses0 []uint64
	if w.tr != nil {
		touched0, misses0 = cacheCounts(w.st)
	}
	p := query.Eq{Attr: 0, Const: fmt.Sprintf("k%d", op.key+1)}
	t0 := time.Now()
	inner := w.tr.begin("store.Sharded.SelectTuples")
	sure, maybe := w.st.SelectTuples(p, query.Options{})
	w.tr.end(inner)
	d := time.Since(t0)
	if w.tr != nil {
		touched1, misses1 := cacheCounts(w.st)
		for i := range touched1 {
			if touched1[i] != touched0[i] {
				w.tr.count("store.shard_visits", 1)
			}
			w.tr.count("store.qcache_misses", float64(misses1[i]-misses0[i]))
		}
		w.tr.count("store.reads", 1)
	}
	m.done(opRead, d, checkKVRead(op.key, op.row, sure, maybe))
	w.tr.end(sp)
}

// checkKVRead checks a point read of key k: exactly the live row as a
// sure answer, or nothing when k is absent.
func checkKVRead(k int, want []string, sure, maybe []relation.Tuple) error {
	if len(maybe) != 0 {
		return fmt.Errorf("read k%d: %d maybe answers, want none", k+1, len(maybe))
	}
	if want == nil {
		if len(sure) != 0 {
			return fmt.Errorf("read k%d: absent key answered %v", k+1, sure[0])
		}
		return nil
	}
	if len(sure) != 1 || !sameCells(sure[0], want) {
		return fmt.Errorf("read k%d: answered %v, want [%s]", k+1, sure, strings.Join(want, " "))
	}
	return nil
}

// sameCells reports that t is the all-constant tuple of cells.
func sameCells(t relation.Tuple, cells []string) bool {
	if len(t) != len(cells) {
		return false
	}
	for i, v := range t {
		if !v.IsConst() || v.Const() != cells[i] {
			return false
		}
	}
	return true
}

// checkKVFinal checks that the store holds exactly the live keys of the
// plan's bookkeeping: base ∪ inserted ∖ deleted, updates applied.
func checkKVFinal(live map[int]int, got *relation.Relation) error {
	if got.Len() != len(live) {
		return fmt.Errorf("final contents: %d rows, want %d", got.Len(), len(live))
	}
	seen := make(map[int]bool, len(live))
	for _, t := range got.Tuples() {
		var k int
		if _, err := fmt.Sscanf(t[0].Const(), "k%d", &k); err != nil {
			return fmt.Errorf("final contents: bad key cell %v", t[0])
		}
		k--
		a, ok := live[k]
		if !ok || seen[k] || !sameCells(t, kvRow(k, a)) {
			return fmt.Errorf("final contents: unexpected row %v", t)
		}
		seen[k] = true
	}
	return nil
}

func (w *kvMixed) finish(out metrics) error {
	if err := checkKVFinal(w.live, w.st.Snapshot()); err != nil {
		return err
	}
	if w.tr == nil {
		return nil
	}
	reads := w.tr.counter("store.reads")
	out.set("store.read_us", w.tr.medianUS("store.Sharded.SelectTuples"), "us")
	out.set("store.write_us", w.tr.medianUS("store.Sharded.InsertRow", "store.Sharded.DeleteTuple", "store.Sharded.UpdateTuple"), "us")
	out.set("store.shard_visits_per_read", w.tr.counter("store.shard_visits")/reads, "count")
	out.set("store.qcache_misses_per_read", w.tr.counter("store.qcache_misses")/reads, "count")
	out.set("relation.index_build_us", probeIndexBuild(w.tr, w.st), "us")
	keys := make([]int, 256)
	for i := range keys {
		keys[i] = w.rng.Intn(kvBase)
	}
	out.set("query.select_us", probeSelect(w.tr, w.st, keys), "us")
	return nil
}

// probeIndexBuild times View.IndexOn(K) on fresh snapshots of each
// shard: the rebuild a read pays after a write.
func probeIndexBuild(tr *tracer, st *store.Sharded) float64 {
	tr.nextOp()
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < st.NumShards(); i++ {
			v := st.Shard(i).Snapshot()
			sp := tr.begin("relation.View.IndexOn")
			v.IndexOn(schema.NewAttrSet(0))
			tr.end(sp)
		}
	}
	return tr.medianUS("relation.View.IndexOn")
}

// probeSelect times query.SelectWith for point reads of keys on their
// home shard's materialized snapshot, whose K index is built first.
func probeSelect(tr *tracer, st *store.Sharded, keys []int) float64 {
	rels := make([]*relation.Relation, st.NumShards())
	for i := range rels {
		rels[i] = st.Shard(i).Snapshot().Materialize()
		rels[i].IndexOn(schema.NewAttrSet(0))
	}
	for _, k := range keys {
		row := kvRow(k, 0)
		si, err := st.ShardOf(constTuple(row))
		if err != nil {
			continue
		}
		tr.nextOp()
		sp := tr.begin("query.SelectWith")
		query.SelectWith(rels[si], query.Eq{Attr: 0, Const: row[0]}, query.Options{})
		tr.end(sp)
	}
	return tr.medianUS("query.SelectWith")
}

func (w *kvMixed) close() error { return nil }
