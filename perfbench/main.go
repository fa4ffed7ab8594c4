// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the two user paths from outside the program: the mapd /map
// handler over loopback HTTP (workload mapd-cold) and the collective front
// doors on one persistent 64-rank world (runtime-mix).
//
// One invocation runs one workload for one seed and prints, as its last
// stdout line, a JSON object with the keys correct, attempted, failed and
// metrics. With -trace 0 the metrics are the end-to-end set; with -trace 1
// they are the per-layer set, measured by timing calls into each layer's
// public functions on the inputs the workload generated, and the spans are
// written as Chrome trace JSON under <root>/.bench_build/traces.
//
// Usage (from the repository root, normally through perfbench/run.py):
//
//	perfbench -workload mapd-cold -seed 1 -seconds 10 -trace 0 -root .
//	perfbench -selftest -root .
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable lines printed before the JSON line
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check: it counts in error_ratio and fails the
// run.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if r.Failed <= 5 {
		r.notef("FAILED CHECK: "+format, args...)
	}
}

// opts are the command-line settings shared by every workload.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
}

func (o *opts) buildDir() string { return filepath.Join(o.root, ".bench_build") }

// workloads maps the workload names to their set-up (also run alone by the
// set-up probes) and their measured run.
var workloads = map[string]struct {
	setup func(o *opts) (teardown func(), err error)
	run   func(o *opts, res *result) error
}{
	"mapd-cold":   {setup: setupColdProbe, run: runCold},
	"runtime-mix": {setup: setupRuntimeProbe, run: runRuntime},
}

// setupRuns is the number of set-up probe processes whose median is setup_s.
const setupRuns = 25

func main() {
	var o opts
	var traceFlag int
	var probe, selftest bool
	flag.StringVar(&o.workload, "workload", "", "workload: mapd-cold or runtime-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root (inputs are read and outputs written under it)")
	flag.BoolVar(&probe, "setup-probe", false, "internal: run the workload's set-up, print ready, exit")
	flag.BoolVar(&selftest, "selftest", false, "check seed determinism and exit")
	flag.Parse()
	o.trace = traceFlag == 1

	// Load comes from one process capped at the machine's CPU count.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	if selftest {
		if err := runSelftest(&o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
			os.Exit(1)
		}
		fmt.Println("selftest ok")
		return
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if probe {
		teardown, err := w.setup(&o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			os.Exit(1)
		}
		fmt.Println("ready")
		teardown()
		return
	}

	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		o.workload, o.seed, o.seconds, traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res := newResult()
	if !o.trace {
		setup, err := probeSetup(&o, setupRuns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			os.Exit(1)
		}
		res.set("setup_s", setup, "s")
	}
	if err := w.run(&o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !o.trace {
		res.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	res.notef("error_ratio %.6f (failed %d of %d attempted)", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, line := range res.notes {
		fmt.Println("# " + line)
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// probeSetup measures setup_s: it starts this binary n times in set-up-probe
// mode and times each from process start until the child reports ready,
// returning the median.
func probeSetup(o *opts, n int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-setup-probe", "-workload", o.workload,
			"-seed", strconv.FormatInt(o.seed, 10), "-root", o.root)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		elapsed := time.Since(start)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("probe %d did not report ready (%q, %v, %v)", i, line, rerr, werr)
		}
		if werr != nil {
			return 0, fmt.Errorf("probe %d: %w", i, werr)
		}
		times = append(times, elapsed.Seconds())
	}
	return median(times), nil
}

// tailWindows caps the windows the tail is taken over.
const tailWindows = 10

// tailQ is the tail percentile every workload reports: p99.
const tailQ = 0.99

// setTail reports the tail percentile (p99) as the median, over
// consecutive windows of the run, of each window's percentile: one stall of
// another process on a shared machine moves one window, not the result.
// lat is in completion order; it uses as many windows (up to tailWindows)
// as leave at least 25 samples beyond the percentile in each, so a window's
// value is itself steady.
func setTail(res *result, lat []float64) {
	perWindow := int(math.Ceil(25 / (1 - tailQ)))
	k := min(tailWindows, max(1, len(lat)/perWindow))
	tails := make([]float64, k)
	for w := range tails {
		win := append([]float64(nil), lat[w*len(lat)/k:(w+1)*len(lat)/k]...)
		tails[w] = quantile(win, tailQ)
	}
	res.notef("tail: median of %d windows' p99 %.3g ms over %d samples", k, tails, len(lat))
	res.set("latency_tail_ms", median(tails), "ms")
}
