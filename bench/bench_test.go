package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/nodeprecated"
	"repro/internal/analysis/rawport"
	"repro/internal/analysis/snapdecode"
	"repro/internal/analysis/spanpair"
	"repro/internal/gen"
)

// TestLintClean holds the benchmark to the repository's analyzers, which
// the root module's guard does not reach because bench is a module of its
// own: raw port I/O only in the //devil:rawport file, balanced spans,
// checked snapshot decoding, no deprecated calls.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module via go list -export")
	}
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{
		nodeprecated.Analyzer, rawport.Analyzer, snapdecode.Analyzer, spanpair.Analyzer,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// testEnv builds rigs from the repository root one level up.
func testEnv(seed uint64) env { return env{seed: seed, root: "..", log: io.Discard} }

// oneCycle builds a fresh rig and runs one timed cycle of it.
func oneCycle(t *testing.T, w *workload, seed uint64) (phase, uint64, *tally) {
	t.Helper()
	tl := &tally{log: io.Discard}
	r, err := w.build(testEnv(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	return loop(r, tl, nil, w.name, 0, 1), r.digest(), tl
}

// TestDeterminism runs every workload twice with seed 1 and once with the
// held-out seed 2: the same seed must draw the same inputs, and the model
// numbers (payload, port operations, virtual time) must not depend on the
// seed at all, which is what lets the benchmark pin them exactly.
func TestDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a, digestA, ta := oneCycle(t, w, 1)
			b, digestB, tb := oneCycle(t, w, 1)
			c, digestC, tc := oneCycle(t, w, 2)
			for _, tl := range []*tally{ta, tb, tc} {
				if tl.failed != 0 {
					t.Fatalf("%d of %d requests failed", tl.failed, tl.attempted)
				}
			}
			if digestA != digestB {
				t.Errorf("seed 1 drew different inputs: digests %x and %x", digestA, digestB)
			}
			if digestA == digestC {
				t.Errorf("seeds 1 and 2 drew the same inputs (digest %x)", digestA)
			}
			if a.cycle != b.cycle || a.cycle != c.cycle {
				t.Errorf("model totals differ: seed 1 %+v and %+v, seed 2 %+v", a.cycle, b.cycle, c.cycle)
			}
			if a.cycle.ops == 0 || a.cycle.payload == 0 {
				t.Errorf("empty model totals %+v", a.cycle)
			}
		})
	}
}

// TestWrongOracleFailsCommand corrupts one checked-in stub the devilc
// oracle compares against: the command must report the failures and exit
// non-zero.
func TestWrongOracleFailsCommand(t *testing.T) {
	root := t.TempDir()
	for i, s := range gen.Library {
		src, err := os.ReadFile(filepath.Join("..", s.Path))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			src = bytes.Replace(src, []byte("package"), []byte("packagf"), 1)
		}
		dst := filepath.Join(root, s.Path)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	code := run([]string{"-workload", "devilc", "-seconds", "0", "-root", root}, &out, io.Discard)
	if code == 0 {
		t.Fatalf("exit status 0 with a wrong oracle:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Errorf("result %+v, want correct=false with failures", res)
	}
}

// TestSelfTime checks self time on a synthetic tree whose children
// overlap, nest and overrun their parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100, CallNS: 5},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a
		{Name: "c", Parent: 0, Start: 80, End: 120}, // overruns root
		{Name: "a1", Parent: 1, Start: 15, End: 20},
		{Name: "b1", Parent: 2, Start: 30, End: 60, Calls: 3, CallNS: 12},
	}
	// root: 100 - [10,60] - [80,100] - 5 handler ns.
	want := []int64{25, 25, 0, 40, 5, 18}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	agg := aggregate(spans)
	if a := agg["b1"]; a.calls != 3 || a.callNS != 12 || a.self != 18 {
		t.Errorf("aggregate(b1) = %+v", *a)
	}
}

// TestRequestSpansShareID checks the tracer's request IDs and parent links.
func TestRequestSpansShareID(t *testing.T) {
	tr := newTracer()
	for r := 0; r < 3; r++ {
		root := tr.request("req")
		drv := tr.begin("driver")
		for i := 0; i < 2*sampleEvery; i++ {
			if tr.call() {
				tr.addSample(1)
			}
		}
		tr.end(tr.begin("leaf"))
		tr.end(drv)
		tr.end(root)
	}
	if len(tr.open) != 0 {
		t.Fatalf("%d spans left open", len(tr.open))
	}
	for i, s := range tr.spans {
		root := i
		for tr.spans[root].Parent >= 0 {
			if p := tr.spans[root].Parent; p >= root {
				t.Fatalf("span %d has parent %d recorded after it", root, p)
			}
			root = tr.spans[root].Parent
		}
		if s.Req != tr.spans[root].Req {
			t.Errorf("span %d (%s) has request %d, its root %d", i, s.Name, s.Req, tr.spans[root].Req)
		}
		if s.Name == "driver" && (s.Calls != 2*sampleEvery || s.CallNS != 2*sampleEvery) {
			t.Errorf("driver span accumulated %d calls, %d ns", s.Calls, s.CallNS)
		}
	}
	if tr.spans[0].Req == tr.spans[4].Req {
		t.Error("two requests share an ID")
	}
}
