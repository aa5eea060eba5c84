package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"time"

	"fdnull/internal/query"
	"fdnull/internal/schema"
	"fdnull/internal/serve"
	"fdnull/internal/store"
	"fdnull/internal/workload"
)

// wire-read: the fdserve daemon booted in-process on loopback, one
// authenticated connection, read-only point queries with Zipf-skewed
// keys over a population eight times the result cache's capacity.
const (
	wrShards = 8
	wrKeys   = 8192 // the query cache holds 1024 predicates per shard
	// wrRound queries per round. A query allocates about 3.7 kB
	// against a live heap of about 8 MB, so the collector runs about
	// once per 2,000 queries: in a round of 2,000 the slowest 1% would
	// depend on whether one collection or two fell in it. A round of
	// 20,000 holds about ten.
	wrRound    = 20000
	wrZipfS    = 1.1
	wrPreloadN = 512 // rows per preload txn
	wrToken    = "perfbench-token"
)

type wireRead struct {
	tr     *tracer
	srv    *serve.Server
	served chan struct{} // closed when Serve returns
	conn   net.Conn
	in     *bufio.Reader
	out    *bufio.Writer
	row    func(int) []string
	zipf   *rand.Zipf
	perm   []int // Zipf rank -> key, so popular keys spread over shards
	keys   []int // the round's keys
	asked  []int // traced: every key queried, for the in-process replay
}

type wireResp struct {
	OK    bool       `json:"ok"`
	Error string     `json:"error"`
	Sure  [][]string `json:"sure"`
	Maybe [][]string `json:"maybe"`
}

func wrConfig() *serve.Config {
	return &serve.Config{Tenants: []serve.TenantSpec{{
		Name:   "kv",
		Token:  wrToken,
		Shards: wrShards,
		Key:    []string{"K"},
		Scheme: serve.SchemeSpec{Name: "KV", Attrs: []serve.AttrSpec{
			{Name: "K", Domain: serve.DomainSpec{Name: "key", Prefix: "k", Size: wrKeys}},
			{Name: "A", Domain: serve.DomainSpec{Name: "alpha", Prefix: "a", Size: 64}},
			{Name: "B", Domain: serve.DomainSpec{Name: "beta", Prefix: "b", Size: 64}},
		}},
		FDs: "K -> A; K -> B",
	}}}
}

func setupWireRead(seed int64, e *env) (runner, error) {
	srv, err := serve.New(wrConfig())
	if err != nil {
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		srv.CloseTenants()
		return nil, err
	}
	_, _, row := workload.KV(wrKeys)
	rng := rand.New(rand.NewSource(seed))
	w := &wireRead{
		tr:     e.tr,
		srv:    srv,
		served: make(chan struct{}),
		row:    row,
		zipf:   rand.NewZipf(rng, wrZipfS, 1, wrKeys-1),
		perm:   rng.Perm(wrKeys),
	}
	go func() {
		srv.Serve()
		close(w.served)
	}()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		w.close()
		return nil, err
	}
	w.conn, w.in, w.out = conn, bufio.NewReaderSize(conn, 64<<10), bufio.NewWriter(conn)
	if err := w.call(map[string]any{"op": "auth", "tenant": "kv", "token": wrToken}); err != nil {
		w.close()
		return nil, fmt.Errorf("auth: %w", err)
	}
	for _, batch := range wrPreload(row) {
		ops := make([]map[string]any, len(batch))
		for i, cells := range batch {
			ops[i] = map[string]any{"op": "insert", "row": cells}
		}
		if err := w.call(map[string]any{"op": "txn", "ops": ops}); err != nil {
			w.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return w, nil
}

// wrPreload is the population in preload txns, in load order.
func wrPreload(row func(int) []string) [][][]string {
	var out [][][]string
	for k := 0; k < wrKeys; k += wrPreloadN {
		var batch [][]string
		for j := k; j < min(k+wrPreloadN, wrKeys); j++ {
			batch = append(batch, row(j))
		}
		out = append(out, batch)
	}
	return out
}

// call sends one request and fails unless the reply is ok.
func (w *wireRead) call(req map[string]any) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := w.roundTrip(append(b, '\n'))
	if err != nil {
		return err
	}
	if !resp.OK {
		return errors.New(resp.Error)
	}
	return nil
}

func (w *wireRead) roundTrip(req []byte) (wireResp, error) {
	var resp wireResp
	if _, err := w.out.Write(req); err != nil {
		return resp, err
	}
	if err := w.out.Flush(); err != nil {
		return resp, err
	}
	line, err := w.in.ReadBytes('\n')
	if err != nil {
		return resp, err
	}
	err = json.Unmarshal(line, &resp)
	return resp, err
}

func (w *wireRead) round(m *meter) {
	w.keys = w.keys[:0]
	for i := 0; i < wrRound; i++ {
		w.keys = append(w.keys, w.perm[w.zipf.Uint64()])
	}
	for _, k := range w.keys {
		w.tr.nextOp()
		want := w.row(k)
		req := []byte(`{"op":"query","where":"K = ` + want[0] + `"}` + "\n")
		sp := w.tr.begin("wire-read.query")
		t0 := time.Now()
		inner := w.tr.begin("serve.query")
		resp, err := w.roundTrip(req)
		w.tr.end(inner)
		d := time.Since(t0)
		if err == nil {
			err = checkWireRead(k, want, resp)
		}
		m.done(opRead, d, err)
		w.tr.end(sp)
		if w.tr != nil {
			w.asked = append(w.asked, k)
		}
	}
}

// checkWireRead checks a query reply: exactly row(k), as a sure answer.
func checkWireRead(k int, want []string, resp wireResp) error {
	if !resp.OK {
		return fmt.Errorf("query k%d: %s", k+1, resp.Error)
	}
	if len(resp.Maybe) != 0 || len(resp.Sure) != 1 || !slices.Equal(resp.Sure[0], want) {
		return fmt.Errorf("query k%d: sure %v maybe %v, want sure [%v]", k+1, resp.Sure, resp.Maybe, want)
	}
	return nil
}

func (w *wireRead) finish(out metrics) error {
	if w.tr == nil {
		return nil
	}
	// The daemon's store is out of reach, so the store-side figures
	// come from replaying the same reads on an in-process store loaded
	// by the same txns.
	sp, err := wrReplayStore(w.row)
	if err != nil {
		return err
	}
	var visits, hits, lookups float64
	for _, k := range w.asked {
		w.tr.nextOp()
		touched0, misses0 := cacheCounts(sp)
		p := query.Eq{Attr: 0, Const: w.row(k)[0]}
		s := w.tr.begin("replay.store.Sharded.SelectTuples")
		sure, maybe := sp.SelectTuples(p, query.Options{})
		w.tr.end(s)
		touched1, misses1 := cacheCounts(sp)
		for i := range touched1 {
			if touched1[i] != touched0[i] {
				visits++
			}
			n, miss := touched1[i]-touched0[i], misses1[i]-misses0[i]
			lookups += float64(n)
			hits += float64(n - miss)
		}
		if len(sure) != 1 || len(maybe) != 0 {
			return fmt.Errorf("replay of k%d: %d sure, %d maybe", k+1, len(sure), len(maybe))
		}
	}
	storeUS := w.tr.medianUS("replay.store.Sharded.SelectTuples")
	out.set("store.read_us", storeUS, "us")
	out.set("store.shard_visits_per_read", visits/float64(len(w.asked)), "count")
	out.set("store.qcache_hit_ratio", hits/lookups, "ratio")
	out.set("serve.overhead_us", w.tr.medianUS("serve.query")-storeUS, "us")
	keys := make([]int, 256)
	for i := range keys {
		keys[i] = w.perm[w.zipf.Uint64()]
	}
	out.set("query.select_us", probeSelect(w.tr, sp, keys), "us")
	return nil
}

func wrReplayStore(row func(int) []string) (*store.Sharded, error) {
	s, fds, _ := workload.KV(wrKeys)
	st, err := store.NewSharded(s, fds, store.ShardedOptions{Shards: wrShards, Key: schema.NewAttrSet(0)})
	if err != nil {
		return nil, err
	}
	for _, batch := range wrPreload(row) {
		tx := st.BeginTxn()
		for _, cells := range batch {
			if err := tx.InsertRow(cells...); err != nil {
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (w *wireRead) close() error {
	var first error
	if w.conn != nil {
		first = w.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil && first == nil {
		first = err
	}
	<-w.served
	return first
}
