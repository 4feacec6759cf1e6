package main

import (
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/sim-montecarlo.golden.json")

// inProcess runs a workload in the test process through the same
// functions a child process runs.
func inProcess(w *workload, o runOpts) (Record, time.Duration, error) {
	start := time.Now()
	var setup time.Duration
	o.ready = func() { setup = time.Since(start) }
	return runWorkload(w, o), setup, nil
}

func smokeOpts() runOpts {
	return runOpts{seed: 1, warmup: 100 * time.Millisecond, measure: time.Second}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables the program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, table %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the table %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload briefly and every rung once, through the
// functions the CLI uses, and checks that each metric BENCHMARK.json
// names is emitted with its unit and that every check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload and rung")
	}
	b := readBenchmarkJSON(t)
	ladder := runLadder(1, ladderConfig{benchtime: "1x", reps: 1})
	if !ladder.Correct {
		t.Error("a ladder rung failed")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := smokeOpts()
			plain, err := measureEndToEnd(inProcess, w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Correct || plain.Failed != 0 {
				t.Errorf("end-to-end run: correct=%v failed=%d", plain.Correct, plain.Failed)
			}
			for _, m := range b.EndToEnd {
				got, ok := plain.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				} else if got.Value == 0 {
					t.Errorf("end-to-end metric %s reads 0", m.Name)
				}
			}
			o.spansDir = t.TempDir()
			traced, err := measureTraced(inProcess, w, o, plain, ladder)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Error("traced run failed a check")
			}
			all := newRecord()
			all.absorb(ladder, "")
			all.absorb(traced, "")
			for _, m := range b.PerLayer {
				if got, ok := all.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			spans := 0
			for k := range traced.Metrics {
				if strings.HasPrefix(k, "span.") {
					spans++
				}
			}
			if spans == 0 {
				t.Error("traced run reported no span self times")
			}
			if files, _ := filepath.Glob(filepath.Join(o.spansDir, "*.jsonl")); len(files) != 1 {
				t.Errorf("traced run wrote %d span files, want 1", len(files))
			}
		})
	}
}

// TestDoubleGrantFailsTheRun injects a second grant of a held lock into
// mutex-inproc's critical section: the run must report itself incorrect.
func TestDoubleGrantFailsTheRun(t *testing.T) {
	w, _ := findWorkload("mutex-inproc")
	o := smokeOpts()
	o.doubleGrant = true
	if rec := runWorkload(w, o); rec.Correct {
		t.Fatal("a double grant went undetected")
	}
}

// TestCorruptGoldenFailsTheRun runs sim-montecarlo against golden files
// that disagree with the simulator: the run must report itself
// incorrect.
func TestCorruptGoldenFailsTheRun(t *testing.T) {
	var cells []cellResult
	if err := json.Unmarshal(goldenFile, &cells); err != nil {
		t.Fatal(err)
	}
	cells[1].Stats.WorstMax++
	changed, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("sim-montecarlo")
	for name, golden := range map[string][]byte{"changed count": changed, "truncated": goldenFile[:len(goldenFile)/2]} {
		o := smokeOpts()
		o.golden = golden
		if rec := runWorkload(w, o); rec.Correct {
			t.Errorf("%s golden file went undetected", name)
		}
	}
}

// TestGoldenIndependentOfWorkers checks the golden rotation with one and
// with two harness workers; -update rewrites the golden file instead.
func TestGoldenIndependentOfWorkers(t *testing.T) {
	for _, workers := range []int{1, 2} {
		got, err := goldenRotation(workers)
		if err != nil {
			t.Fatal(err)
		}
		if *update && workers == 1 {
			data, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile("testdata/sim-montecarlo.golden.json", append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			goldenFile = append(data, '\n')
			continue
		}
		if err := checkGolden(got, goldenFile); err != nil {
			t.Errorf("%d workers: %v", workers, err)
		}
	}
}

// surfaceViolations reports references to surfaces the ROADMAP plans to
// delete: the …Fast twins, NoFastPath/Plain, tasclient.Dial, NamedTAS,
// LockUntil and the zero-argument Lock().
func surfaceViolations(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(n ast.Node, what string) {
		out = append(out, fset.Position(n.Pos()).String()+": "+what)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			switch name := n.Name; {
			case len(name) > 4 && strings.HasSuffix(name, "Fast"):
				report(n, name)
			case name == "NoFastPath", name == "Plain", name == "NamedTAS", name == "LockUntil":
				report(n, name)
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "tasclient" && n.Sel.Name == "Dial" {
				report(n, "tasclient.Dial")
			}
		case *ast.CallExpr:
			// The benchmark's own sync.Mutex values are all named mu; any
			// other zero-argument Lock() is MutexProc's deprecated one.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" && len(n.Args) == 0 && !namedMu(sel.X) {
				report(n, "zero-argument Lock()")
			}
		}
		return true
	})
	return out
}

func namedMu(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name == "mu"
	case *ast.SelectorExpr:
		return x.Sel.Name == "mu"
	}
	return false
}

// TestStableSurface keeps the benchmark off every surface the ROADMAP
// plans to delete, so those deletions never edit the benchmark.
func TestStableSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files: %v", err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range surfaceViolations(fset, f) {
			t.Errorf("the benchmark references a surface planned for deletion: %s", v)
		}
	}
	// The guard itself must catch each of them.
	const bad = `package p
func f() {
	obj.TASFast(h); le.ElectFast(h)
	_ = randtas.ArenaOptions{NoFastPath: true}; _ = arena.Config{Plain: true}
	tasclient.Dial("addr")
	var _ *randtas.NamedTAS
	p.LockUntil(stop); p.Lock()
}`
	f, err := parser.ParseFile(fset, "bad.go", bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := surfaceViolations(fset, f); len(got) != 8 {
		t.Errorf("guard found %d violations in the bad snippet, want 8: %v", len(got), got)
	}
}

// TestQuartilesMatchPython pins compare's quartiles to Python's
// statistics.quantiles(n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got := quartiles([]float64{1, 2, 4, 8, 16}); got != [3]float64{1.5, 4, 12} {
		t.Errorf("quartiles(1,2,4,8,16) = %v", got)
	}
}

// TestCompareVerdicts runs compare on synthetic pairs.
func TestCompareVerdicts(t *testing.T) {
	mk := func(ops, p50 float64) Record {
		r := newRecord()
		r.set("ops_per_s", ops, "1/s")
		r.set("latency_p50_us", p50, "us")
		return r
	}
	var parent, change []Record
	for i := 0; i < 10; i++ {
		j := float64(i % 3)
		parent = append(parent, mk(1000+j, 10+0.01*j))
		change = append(change, mk(1200+j, 14+0.01*j))
	}
	var out strings.Builder
	if code := compareRecords(parent, change, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"ops_per_s", "gain", "latency_p50_us", "regressed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	if code := compareRecords(parent[:9], change[:9], &out); code == 0 {
		t.Error("compare accepted 9 pairs")
	}
}
