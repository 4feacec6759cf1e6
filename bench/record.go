package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Record is the one result schema of the ledger. Every run prints one as
// the last line of its standard output, a child process hands one to its
// parent, and compare reads files of them. Metric names are bare when the
// record covers one workload and carry an "@workload" suffix when it
// covers several (ladder metrics, which belong to no workload, stay bare).
type Record struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRecord() Record { return Record{Correct: true, Metrics: map[string]Metric{}} }

func (r *Record) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

func (r Record) value(name string) float64 { return r.Metrics[name].Value }

// absorb folds o's outcome into r and copies o's metrics under the
// optional suffix.
func (r *Record) absorb(o Record, suffix string) {
	r.Correct = r.Correct && o.Correct
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for k, m := range o.Metrics {
		r.Metrics[k+suffix] = m
	}
}

// writeJSON prints r on one line. A metric that is not a finite number
// (a division by a zero op count) is a failed measurement: it is dropped
// and the record marked incorrect, since JSON cannot carry it.
func (r *Record) writeJSON(w io.Writer) error {
	for k, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(r.Metrics, k)
			r.Correct = false
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeTable prints every metric of r by name, value and unit, sorted by
// name, for a reader.
func (r *Record) writeTable(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// metricDef describes one metric of BENCHMARK.json. bound is the share
// of the parent's median by which an end-to-end metric may worsen before
// a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload with tracing off. They mirror BENCHMARK.json, which a test
// keeps in step. The bounds are wide because on the 2-vCPU reference
// host the run-to-run spread of the time-based metrics reached 20-35%
// (bench/README.md, "Measured spread").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"ok_frac", "frac", "higher", 0.0001},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics a traced run reports: the ladder's rungs, in
// layer order from coin flip to client round trip, then the two numbers
// that relate the ladder and the trace to the end-to-end run.
var perLayer = func() []metricDef {
	ns := func(name string) metricDef { return metricDef{name, "ns", "lower", 0} }
	count := func(name, unit string) metricDef { return metricDef{name, unit, "lower", 0} }
	defs := []metricDef{
		ns("rng.coin_ns"), ns("clock.now_ns"),
		ns("concurrent.read_ns"), ns("concurrent.write_ns"),
		ns("concurrent.write_counted_ns"), ns("concurrent.reset_ns"),
	}
	for _, e := range ladderElectors {
		defs = append(defs,
			ns(e.name+".solo_ns"), count(e.name+".solo_steps", "steps"),
			ns(e.name+".k2_ns"), count(e.name+".k2_steps", "steps"), count(e.name+".k2_ccrmr", "rmr"),
			count(e.name+".k8_steps", "steps"))
	}
	defs = append(defs,
		ns("twoproc.k2_ns"),
		ns("arena.getput_ns"), count("arena.miss_frac", "frac"), count("arena.steal_frac", "frac"),
		ns("arena.mutex_solo_ns"), count("arena.mutex_allocs_per_op", "allocs"),
		count("arena.mutex_lost_frac", "frac"), count("arena.mutex_steps_per_op", "steps"),
		count("arena.mutex_ccrmr_per_op", "rmr"), count("arena.mutex_dsmrmr_per_op", "rmr"),
		ns("arena.registry_lookup_ns"), ns("arena.election_cycle_ns"),
		ns("wire.append_request_ns"), ns("wire.append_response_ns"),
		ns("wire.read_request_ns"), ns("wire.read_response_ns"),
		count("wire.allocs_per_pair", "allocs"), count("wire.bytes_per_pair", "bytes"),
		ns("server.pipe_batch16_ns_per_op"), ns("server.pipe_single_ns_per_op"),
		count("server.allocs_per_op", "allocs"), count("server.contended_frac", "frac"),
		count("server.shed_frac", "frac"),
		ns("tasclient.pipe_do16_ns_per_op"), ns("tasclient.pipe_single_rtt_ns"),
		count("tasclient.allocs_per_op", "allocs"), ns("loopback.single_rtt_overhead_ns"),
		ns("sim.step_ns"), ns("sim.trial_ns"), count("sim.trial_allocs", "allocs"),
		metricDef{"harness.trials_per_s_w1", "1/s", "higher", 0},
		metricDef{"harness.trials_per_s_w2", "1/s", "higher", 0},
		metricDef{"harness.parallel_eff", "frac", "higher", 0},
		count("sim.logstar_meanmax_steps", "steps"), count("sim.combined_meanmax_steps", "steps"),
		count("sim.ratrace_meanmax_steps", "steps"),
		count("ledger.residual_frac", "frac"), count("trace.overhead_frac", "frac"),
	)
	return defs
}()

// lookupDef finds the definition behind a record key, ignoring any
// "@workload" suffix.
func lookupDef(key string) (metricDef, bool) {
	name, _, _ := strings.Cut(key, "@")
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
