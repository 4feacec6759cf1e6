// Command bench is the performance ledger of the randtas repository: one
// command that runs named workloads end to end, checks that their
// outputs are correct, and prints every metric by name and unit, plus a
// ladder of per-layer measurements from coin flip to client round trip.
//
//	go run . [-seed S] [-seconds N] [-trace]            all four workloads
//	go run . -workload W [-seed S] [-seconds N] [-trace]
//	go run . compare A.json B.json                      parent vs change
//
// Run it from this directory, or from the repository root through
// run.sh. Each workload runs in its own child process, one after
// another; the last line of standard output is one JSON record (see
// Record), and the exit code is 1 if any correctness check failed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setupProbes is how many extra set-up-only children time set-up per
// end-to-end run; setup_s is the median over them and the measured child.
const setupProbes = 19

// spansDir is where traced runs write their spans, relative to the
// working directory; building and running leave everything under
// .bench_build.
const spansDir = ".bench_build/spans"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all, one after another)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload")
	trace := fs.Bool("trace", false, "run the per-layer ladder and traced reruns instead of (with -workload) or after the end-to-end runs")
	child := fs.String("child", "", "internal: run one workload in this process")
	traced := fs.Bool("traced", false, "internal: record spans in the child")
	setupOnly := fs.Bool("setup-only", false, "internal: set the child up, report readiness and exit")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	o := runOpts{seed: *seed, warmup: warmup, measure: time.Duration(*seconds * float64(time.Second)), spansDir: spansDir}

	if *child != "" {
		w, err := findWorkload(*child)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		o.traced, o.setupOnly = *traced, *setupOnly
		o.ready = func() { fmt.Fprintln(stdout, "ready") }
		rec := runWorkload(w, o)
		if !*setupOnly {
			if err := rec.writeJSON(stdout); err != nil {
				return 1
			}
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	runner := childRunner(exe)
	var out Record
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		out = runOneWorkload(runner, w, o, *trace, stdout)
	} else {
		out = runAll(runner, o, *trace, stdout)
	}
	if err := out.writeJSON(stdout); err != nil || !out.Correct {
		return 1
	}
	return 0
}

// normalizeArgs lets the boolean -trace take its value as a separate
// argument ("--trace 1"), which the flag package reads only as
// "-trace=1".
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// runFunc runs one workload once and reports its record and the set-up
// time seen from outside: from start to the workload's readiness.
type runFunc func(w *workload, o runOpts) (Record, time.Duration, error)

// childRunner runs each workload in a fresh child process of exe, so
// that set-up, CPU time and peak memory are the workload's alone.
func childRunner(exe string) runFunc {
	return func(w *workload, o runOpts) (Record, time.Duration, error) {
		args := []string{"-child", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.measure.Seconds(), 'g', -1, 64)}
		if o.traced {
			args = append(args, "-traced")
		}
		if o.setupOnly {
			args = append(args, "-setup-only")
		}
		ctx, cancel := context.WithTimeout(context.Background(), o.warmup+o.measure+time.Minute)
		defer cancel()
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return Record{}, 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return Record{}, 0, err
		}
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<16), 1<<24)
		var setup time.Duration
		var last string
		for sc.Scan() {
			if setup == 0 && sc.Text() == "ready" {
				setup = time.Since(start)
				continue
			}
			last = sc.Text()
		}
		werr := cmd.Wait()
		if werr != nil {
			return Record{}, 0, fmt.Errorf("%s child: %v", w.name, werr)
		}
		if setup == 0 {
			return Record{}, 0, fmt.Errorf("%s child never became ready", w.name)
		}
		if o.setupOnly {
			return Record{}, setup, nil
		}
		rec := newRecord()
		if err := json.Unmarshal([]byte(last), &rec); err != nil {
			return Record{}, 0, fmt.Errorf("%s child record: %v", w.name, err)
		}
		return rec, setup, nil
	}
}

// measureEndToEnd runs w untraced and adds setup_s, the median set-up
// time over setupProbes set-up-only runs and the measured run.
func measureEndToEnd(run runFunc, w *workload, o runOpts) (Record, error) {
	var setups []float64
	probe := o
	probe.setupOnly = true
	for i := 0; i < setupProbes; i++ {
		_, d, err := run(w, probe)
		if err != nil {
			return Record{}, err
		}
		setups = append(setups, d.Seconds())
	}
	rec, d, err := run(w, o)
	if err != nil {
		return Record{}, err
	}
	setups = append(setups, d.Seconds())
	rec.set("setup_s", median(setups), "s")
	return rec, nil
}

// measureTraced reruns w with spans around every call the benchmark makes
// into a layer and relates it to the untraced run plain and the ladder:
// trace.overhead_frac is how much slower the traced run went, and
// ledger.residual_frac the share of the end-to-end time per op that the
// blocking-path rungs do not explain.
func measureTraced(run runFunc, w *workload, o runOpts, plain, ladder Record) (Record, error) {
	o.traced = true
	traced, _, err := run(w, o)
	if err != nil {
		return Record{}, err
	}
	rec := newRecord()
	rec.Correct, rec.Attempted, rec.Failed = traced.Correct, traced.Attempted, traced.Failed
	for k, m := range traced.Metrics {
		if strings.HasPrefix(k, "span.") {
			rec.Metrics[k] = m
		}
	}
	rec.set("trace.overhead_frac", plain.value("ops_per_s")/traced.value("ops_per_s")-1, "frac")
	path, e2e := w.residual(plain, ladder)
	rec.set("ledger.residual_frac", 1-path/e2e, "frac")
	return rec, nil
}

// runOneWorkload is the single-workload mode: without -trace the record
// holds exactly the end-to-end metrics; with it, exactly the per-layer
// ones (the measured time split between an untraced and a traced run).
func runOneWorkload(run runFunc, w *workload, o runOpts, trace bool, stdout io.Writer) Record {
	out := newRecord()
	fail := func(err error) Record {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		out.Correct = false
		return out
	}
	if !trace {
		rec, err := measureEndToEnd(run, w, o)
		if err != nil {
			return fail(err)
		}
		out.absorb(rec, "")
		fmt.Fprintf(stdout, "== %s (seed %d) ==\n", w.name, o.seed)
		out.writeTable(stdout)
		return out.only(endToEnd)
	}
	ladder := runLadder(o.seed, defaultLadder)
	o.measure /= 2
	plain, _, err := run(w, o)
	if err != nil {
		return fail(err)
	}
	tr, err := measureTraced(run, w, o, plain, ladder)
	if err != nil {
		return fail(err)
	}
	out.absorb(ladder, "")
	out.absorb(plain, "")
	out.absorb(tr, "")
	fmt.Fprintf(stdout, "== %s (seed %d, traced) ==\n", w.name, o.seed)
	out.writeTable(stdout)
	return out.only(perLayer)
}

// runAll runs every workload end to end, one child after another, and
// with trace adds the ladder and a traced rerun of each. Workload
// metrics carry an "@workload" suffix; ladder metrics stay bare.
func runAll(run runFunc, o runOpts, trace bool, stdout io.Writer) Record {
	out := newRecord()
	var ladder Record
	if trace {
		ladder = runLadder(o.seed, defaultLadder)
		out.absorb(ladder, "")
	}
	for _, w := range workloads {
		rec, err := measureEndToEnd(run, w, o)
		if err == nil && trace {
			var tr Record
			if tr, err = measureTraced(run, w, o, rec, ladder); err == nil {
				rec.absorb(tr, "")
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			out.Correct = false
			continue
		}
		fmt.Fprintf(stdout, "== %s (seed %d) ==\n", w.name, o.seed)
		rec.writeTable(stdout)
		out.absorb(rec, "@"+w.name)
	}
	if trace {
		fmt.Fprintln(stdout, "== ladder ==")
		ladder.writeTable(stdout)
	}
	return out
}

// only keeps exactly the metrics defs names; a missing one makes the
// record incorrect, since a run must report every metric it promises.
func (r Record) only(defs []metricDef) Record {
	out := r
	out.Metrics = map[string]Metric{}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: metric %s was not measured\n", d.name)
			out.Correct = false
			continue
		}
		out.Metrics[d.name] = m
	}
	return out
}
