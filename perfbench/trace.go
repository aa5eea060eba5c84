package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`     // operation the call belongs to
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. Every workload has
// one client goroutine, so spans nest strictly and need no lock. A nil
// tracer records nothing.
type tracer struct {
	epoch    time.Time
	op       int64
	spans    []span
	open     []int32
	counters map[string]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counters: map[string]float64{}} }

// count adds v to the named counter, read at the layer boundary.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counters[name] += v
	}
}

func (t *tracer) counter(name string) float64 { return t.counters[name] }

// nextOp starts a new operation; the spans that follow share its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// layerStat summarises the spans of one name.
type layerStat struct {
	count  int
	median time.Duration
	self   time.Duration // total duration minus the time in child spans
}

func (t *tracer) stats() map[string]layerStat {
	durs := map[string][]time.Duration{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerStat{}
	for i, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], d)
		st := out[s.Name]
		st.count++
		st.self += d - time.Duration(child[i])
		out[s.Name] = st
	}
	for name, ds := range durs {
		st := out[name]
		st.median = quantile(ds, 0.5)
		out[name] = st
	}
	return out
}

// medianUS is the median duration, in microseconds, of the spans with
// any of the given names.
func (t *tracer) medianUS(names ...string) float64 {
	var ds []time.Duration
	for _, s := range t.spans {
		if slices.Contains(names, s.Name) {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return micros(quantile(ds, 0.5))
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printLayers(f *os.File, name string, st map[string]layerStat) {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "%s spans: %-34s %9s %12s %12s\n", name, "layer call", "count", "median_us", "self_ms")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(f, "%s spans: %-34s %9d %12.1f %12.1f\n", name, n, s.count,
			micros(s.median), float64(s.self)/float64(time.Millisecond))
	}
}

// runTraced measures every workload twice for phase = window/4 each:
// an untraced pass for the tracing-overhead baseline and the figures a
// pass of its own gives (recovery, batch analysis times), then a traced
// pass whose spans and counters give the per-layer metrics.
func runTraced(seed int64, window time.Duration, out string) (result, error) {
	phase := max(time.Second, window/4)
	res := result{Correct: true, Metrics: metrics{}}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(work)
	for _, spec := range workloads {
		plain, err := tracedPass(spec, seed, phase, work, nil)
		if err != nil {
			return res, err
		}
		tr := newTracer()
		traced, err := tracedPass(spec, seed, phase, work, tr)
		if err != nil {
			return res, err
		}
		if err := tr.writeFile(filepath.Join(out, "spans-"+spec.name+".jsonl")); err != nil {
			return res, err
		}
		printLayers(os.Stderr, spec.name, tr.stats())
		for _, p := range []pass{plain, traced} {
			res.Attempted += p.m.attempted
			res.Failed += p.m.failed
			res.Correct = res.Correct && p.checkOK
			for n, v := range p.extra {
				res.Metrics[spec.name+"."+n] = v
			}
		}
		res.Metrics.set(spec.name+".alloc_bytes_per_op", plain.allocPerOp, "B")
		if len(plain.writes) > 0 {
			res.Metrics.set(spec.name+".write_p50_us", micros(quantile(plain.writes, 0.50)), "us")
			res.Metrics.set(spec.name+".write_p99_us", micros(quantile(plain.writes, 0.99)), "us")
		}
		if len(plain.refusals) > 0 {
			res.Metrics.set(spec.name+".refused_p50_us", micros(quantile(plain.refusals, 0.50)), "us")
		}
		// The overhead compares whole windows, so the tracer's own work
		// between and around the timed calls counts against it.
		untraced, withTrace := plain.wallOpsPerSec(), traced.wallOpsPerSec()
		res.Metrics.set(spec.name+".trace.untraced_ops_per_s", untraced, "1/s")
		res.Metrics.set(spec.name+".trace.traced_ops_per_s", withTrace, "1/s")
		fmt.Fprintf(os.Stderr, "%s: tracing overhead %.1f%% of ops_per_s over the window (%.0f traced vs %.0f untraced)\n",
			spec.name, 100*(1-withTrace/untraced), withTrace, untraced)
	}
	printMetrics(os.Stderr, res.Metrics)
	return res, nil
}

func tracedPass(spec workloadSpec, seed int64, phase time.Duration, work string, tr *tracer) (pass, error) {
	dir, err := os.MkdirTemp(work, spec.name+"-")
	if err != nil {
		return pass{}, err
	}
	w, err := spec.setup(seed, &env{dir: dir, tr: tr})
	if err != nil {
		return pass{}, fmt.Errorf("%s set-up: %w", spec.name, err)
	}
	p, err := measure(w, &meter{}, phase)
	if err != nil {
		return p, err
	}
	kind := "untraced"
	if tr != nil {
		kind = "traced"
	}
	fmt.Fprintf(os.Stderr, "%s %s pass: %d ops attempted, %d failed\n", spec.name, kind, p.m.attempted, p.m.failed)
	if p.m.firstFail != "" {
		fmt.Fprintf(os.Stderr, "  first failure: %s\n", p.m.firstFail)
	}
	if !p.checkOK {
		fmt.Fprintf(os.Stderr, "  end-state check failed: %s\n", p.checkMsg)
	}
	runtime.GC()
	return p, nil
}
