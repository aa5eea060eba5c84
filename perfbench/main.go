// Command perfbench measures the store in its default configuration on
// four closed-loop workloads and prints one JSON result line.
//
//	perfbench -workload kv-mixed -seed 1 -seconds 10 -trace 0
//
// Every workload is driven by one client that waits for each reply and
// runs whole rounds of a seed-drawn operation sequence until the timed
// window has lasted -seconds; each figure is the median over the timed
// rounds. Every answer is checked against the generator's own
// bookkeeping or a property the method must have; an unexpected answer
// counts as a failed operation. With -trace 0 the result carries the end-to-end metrics of
// the named workload; with -trace 1 it carries the per-layer metrics of
// every workload, from one untraced and one traced pass of each (the
// per-layer table spans all four workloads). README.md explains the
// workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median, and only the last instance is measured.
const setupRepeats = 5

// warmupRounds run untimed before the window opens, so caches fill and
// lazy set-up finishes first.
const warmupRounds = 1

// runner is one workload's system under test, set up and ready for
// rounds.
type runner interface {
	// round runs one round of the workload's fixed operation sequence,
	// timing and checking every operation through m.
	round(m *meter)
	// finish checks the end state and adds workload-specific metrics to
	// out. It runs after the timed window, before close.
	finish(out metrics) error
	// close releases everything the workload holds.
	close() error
}

// workloadSpec names a workload and how to set it up.
type workloadSpec struct {
	name  string
	setup func(seed int64, env *env) (runner, error)
}

var workloads = []workloadSpec{
	{"kv-mixed", setupKVMixed},
	{"null-durable", setupNullDurable},
	{"wire-read", setupWireRead},
	{"fd-audit", setupFDAudit},
}

// env carries what a workload needs from the harness: a scratch
// directory and, in a traced pass, the span recorder.
type env struct {
	dir string
	tr  *tracer // nil when untraced
}

// opKind sorts operations for the latency figures.
type opKind uint8

const (
	opRead    opKind = iota // a read, or one fd-audit audit
	opWrite                 // a single-op write or an accepted txn commit
	opRefused               // a txn the generator built to be refused
	numOpKinds
)

// meter records the operations of a run: latency of each timed
// operation of the current round, by kind, and how many were attempted
// and failed.
type meter struct {
	timing    bool // false during warm-up
	lat       [numOpKinds][]time.Duration
	attempted int
	failed    int
	firstFail string
}

// done records one finished operation of kind k: its latency and, when
// check is non-nil, the unexpected outcome that makes it a failure.
func (m *meter) done(k opKind, d time.Duration, check error) {
	m.attempted++
	if check != nil {
		m.failed++
		if m.firstFail == "" {
			m.firstFail = check.Error()
		}
	}
	if m.timing {
		m.lat[k] = append(m.lat[k], d)
	}
}

// roundStat summarises one timed round.
type roundStat struct {
	ops              int
	busy             time.Duration // time the client spent waiting for the system
	readP50, readP99 time.Duration
}

// opsPerSec is the round's closed-loop throughput: operations per second
// of the time the client spent waiting, so the benchmark's own planning
// and checking do not count.
func (r roundStat) opsPerSec() float64 { return float64(r.ops) / r.busy.Seconds() }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (ms metrics) set(name string, v float64, unit string) { ms[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: kv-mixed, null-durable, wire-read or fd-audit")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: per-layer metrics of every workload from traced passes")
	out := fs.String("out", ".bench_build/perfbench", "directory for scratch stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	window := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(*seed, window, *out)
	} else {
		res, err = runUntraced(spec, *seed, window, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func lookup(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// pass is the outcome of one set-up-and-measure cycle of a workload.
// Its figures are medians over the timed rounds: every round runs the
// same number of operations, and the median round is robust to the
// bursts of interference a shared machine produces.
type pass struct {
	m       *meter
	rounds  []roundStat
	elapsed time.Duration // the timed window, first timed op to last
	// writes and refusals are the latencies of every timed write and
	// refused txn of the window, pooled over its rounds.
	writes, refusals []time.Duration
	// allocPerOp is the bytes the process allocated in the window per
	// timed operation.
	allocPerOp float64
	extra      metrics // workload-specific metrics from finish
	heapMB     float64
	checkOK    bool
	checkMsg   string
}

func (p pass) timedOps() int {
	n := 0
	for _, r := range p.rounds {
		n += r.ops
	}
	return n
}

// roundMedian is the median over the timed rounds of f.
func (p pass) roundMedian(f func(roundStat) float64) float64 {
	xs := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

func (p pass) opsPerSec() float64 { return p.roundMedian(roundStat.opsPerSec) }

// wallOpsPerSec is the timed operations per second of the whole window,
// the benchmark's own work between operations included.
func (p pass) wallOpsPerSec() float64 { return float64(p.timedOps()) / p.elapsed.Seconds() }

// measure runs warm-up and timed rounds on w until the window has
// lasted at least window, then finishes and closes it.
func measure(w runner, m *meter, window time.Duration) (pass, error) {
	p := pass{m: m, extra: metrics{}, checkOK: true}
	for i := 0; i < warmupRounds; i++ {
		w.round(m)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.timing = true
	start := time.Now()
	for time.Since(start) < window {
		for k := range m.lat {
			m.lat[k] = m.lat[k][:0]
		}
		w.round(m)
		reads := m.lat[opRead]
		r := roundStat{readP50: quantile(reads, 0.50), readP99: quantile(reads, 0.99)}
		for _, lat := range m.lat {
			r.ops += len(lat)
			for _, d := range lat {
				r.busy += d
			}
		}
		p.rounds = append(p.rounds, r)
		p.writes = append(p.writes, m.lat[opWrite]...)
		p.refusals = append(p.refusals, m.lat[opRefused]...)
	}
	p.elapsed = time.Since(start)
	m.timing = false
	runtime.ReadMemStats(&after)
	p.allocPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(p.timedOps())
	if err := w.finish(p.extra); err != nil {
		p.checkOK = false
		p.checkMsg = err.Error()
	}
	p.heapMB = liveHeapMB()
	if err := w.close(); err != nil {
		return p, err
	}
	return p, nil
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func runUntraced(spec workloadSpec, seed int64, window time.Duration, out string) (result, error) {
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	var setups []float64
	var w runner
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return result{}, err
			}
			w = nil
			runtime.GC()
		}
		dir, err := os.MkdirTemp(work, "setup-")
		if err != nil {
			return result{}, err
		}
		t0 := time.Now()
		w, err = spec.setup(seed, &env{dir: dir})
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m := &meter{}
	p, err := measure(w, m, window)
	if err != nil {
		return result{}, err
	}
	ms := metrics{}
	ms.set("ops_per_s", p.opsPerSec(), "1/s")
	ms.set("read_p50_us", p.roundMedian(func(r roundStat) float64 { return micros(r.readP50) }), "us")
	ms.set("read_p99_us", p.roundMedian(func(r roundStat) float64 { return micros(r.readP99) }), "us")
	ms.set("setup_s", median(setups), "s")
	ms.set("heap_mb", p.heapMB, "MB")
	report(os.Stderr, spec.name, p, ms)
	return result{
		Correct:   p.checkOK,
		Attempted: p.m.attempted,
		Failed:    p.m.failed,
		Metrics:   ms,
	}, nil
}

func report(f *os.File, name string, p pass, ms metrics) {
	fmt.Fprintf(f, "%s: %d ops, %d of them in %d timed rounds over %.2fs, %d failed\n",
		name, p.m.attempted, p.timedOps(), len(p.rounds), p.elapsed.Seconds(), p.m.failed)
	if p.m.firstFail != "" {
		fmt.Fprintf(f, "  first failure: %s\n", p.m.firstFail)
	}
	if !p.checkOK {
		fmt.Fprintf(f, "  end-state check failed: %s\n", p.checkMsg)
	}
	printMetrics(f, ms)
	printMetrics(f, p.extra)
}

func printMetrics(f *os.File, ms metrics) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-42s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// quantile is the nearest-rank q-quantile of the latencies.
func quantile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := slices.Clone(lat)
	slices.Sort(s)
	i := int(float64(len(s))*q+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
