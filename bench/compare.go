package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// minPairs is the fewest parent/change pairs compare accepts.
const minPairs = 10

// compareMain applies the ledger's rule for claiming a gain to two files
// of records: PARENT.json from the parent commit and CHANGE.json from
// the change, the i-th record of each being one alternating pair run
// with identical settings. For each metric both sides report it prints
// each side's median and quartiles, how many pairs the change won, and a
// verdict:
//
//   - gain: the change won at least 9 of every 10 pairs (ties count for
//     neither), its median is better by more than the parent's
//     interquartile range, and no more ops failed than at the parent;
//   - regressed: a gated metric's median is worse than the parent's by
//     more than the metric's bound;
//   - unresolved: the parent's own spread is wider than the bound, and
//     not every change run beat every parent run;
//   - unchanged: within the bound (gated metrics), or no gain (the rest).
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare PARENT.json CHANGE.json")
		return 2
	}
	parent, err := readRecords(args[0])
	if err == nil {
		var change []Record
		if change, err = readRecords(args[1]); err == nil {
			return compareRecords(parent, change, stdout)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

// readRecords reads a file of records: JSON objects one after another
// (one per line, as runs print them) or one JSON array of them.
func readRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if t := bytes.TrimSpace(data); len(t) > 0 && t[0] == '[' {
		if err := json.Unmarshal(t, &recs); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		return recs, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var r Record
		if err := dec.Decode(&r); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: record %d: %v", path, len(recs)+1, err)
		}
		recs = append(recs, r)
	}
}

func compareRecords(parent, change []Record, stdout io.Writer) int {
	pairs := min(len(parent), len(change))
	if pairs < minPairs {
		fmt.Fprintf(os.Stderr, "bench compare: %d pairs; a claim needs at least %d\n", pairs, minPairs)
		return 2
	}
	parent, change = parent[:pairs], change[:pairs]
	var failedA, failedB int64
	for i := 0; i < pairs; i++ {
		failedA += parent[i].Failed
		failedB += change[i].Failed
	}
	fmt.Fprintf(stdout, "%d pairs; failed ops: parent %d, change %d\n", pairs, failedA, failedB)
	fmt.Fprintf(stdout, "%-44s %-36s %-36s %-6s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, key := range sharedKeys(parent, change) {
		va, vb := values(parent, key), values(change, key)
		def, ok := lookupDef(key)
		if !ok {
			def = metricDef{name: key, better: "lower"} // span self times
		}
		qa, qb := quartiles(va), quartiles(vb)
		wins := 0
		for i := range va {
			if better(def, vb[i], va[i]) {
				wins++
			}
		}
		fmt.Fprintf(stdout, "%-44s %-36s %-36s %2d/%-3d %s\n", key, fmtQ(qa), fmtQ(qb), wins, pairs,
			verdict(def, va, vb, qa, qb, wins, failedB > failedA))
	}
	return 0
}

// sharedKeys are the metrics every record on both sides reports, sorted.
func sharedKeys(sides ...[]Record) []string {
	count := map[string]int{}
	total := 0
	for _, recs := range sides {
		for _, r := range recs {
			total++
			for k := range r.Metrics {
				count[k]++
			}
		}
	}
	var keys []string
	for k, n := range count {
		if n == total {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func values(recs []Record, key string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Metrics[key].Value
	}
	return out
}

func better(d metricDef, x, y float64) bool {
	if d.better == "higher" {
		return x > y
	}
	return x < y
}

func verdict(d metricDef, va, vb []float64, qa, qb [3]float64, wins int, moreFailures bool) string {
	medA, medB := qa[1], qb[1]
	iqrA := qa[2] - qa[0]
	if 10*wins >= 9*len(va) && math.Abs(medB-medA) > iqrA && better(d, medB, medA) && !moreFailures {
		return fmt.Sprintf("gain (%+.2f%% of the parent's median)", 100*(medB-medA)/medA)
	}
	if d.bound == 0 {
		return "unchanged (no bound)"
	}
	worse := (medB - medA) / medA
	if d.better == "higher" {
		worse = -worse
	}
	if spread := iqrA / math.Abs(medA); spread > d.bound {
		if allBetter(d, vb, va) {
			return "better in every run"
		}
		return fmt.Sprintf("unresolved (parent spread %.1f%% > bound %.1f%%)", 100*spread, 100*d.bound)
	}
	if worse > d.bound {
		return fmt.Sprintf("regressed (%.1f%% worse > bound %.1f%%)", 100*worse, 100*d.bound)
	}
	return fmt.Sprintf("unchanged within bound (%+.1f%%, bound %.1f%%)", -100*worse, 100*d.bound)
}

func allBetter(d metricDef, change, parent []float64) bool {
	for _, x := range change {
		for _, y := range parent {
			if !better(d, x, y) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) and statistics.median
// compute them, so the ledger's spreads match any script that checks it.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	q := func(i int) float64 { // exclusive method
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return [3]float64{q(1), median(s), q(3)}
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2])
}
