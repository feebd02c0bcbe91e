package experiments

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestTable2Shape verifies the qualitative Table 2 claims on a small
// transfer: DMA parity, ~90% PIO loop ratio, block parity.
func TestTable2Shape(t *testing.T) {
	rows, err := Table2Rows(256)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Config.Mode == 1 { // DMA
			if r.Ratio < 0.99 || r.Ratio > 1.01 {
				t.Errorf("DMA ratio = %.3f", r.Ratio)
			}
			continue
		}
		if r.Ratio < 0.85 || r.Ratio > 0.95 {
			t.Errorf("%s ratio = %.3f, want ~0.90", r.Config, r.Ratio)
		}
		if r.DevilOps <= r.StdOps {
			t.Errorf("%s: devil ops %d should exceed std ops %d (per-word loop)",
				r.Config, r.DevilOps, r.StdOps)
		}
	}

	blocks, err := Table2BlockRows(256)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range blocks {
		if r.Ratio < 0.98 || r.Ratio > 1.005 {
			t.Errorf("block %s ratio = %.3f, want ~1.0", r.Config, r.Ratio)
		}
	}
}

// TestTable3And4Shape verifies the Permedia2 claims: small-rect penalty a
// few percent, none at 100+ pixels, 24bpp identical, and the per-primitive
// write counts.
func TestTable3And4Shape(t *testing.T) {
	rows, err := Table3Rows(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch {
		case r.BPP == 24:
			if r.Ratio < 0.999 || r.StdWrites != 10 || r.DevilWrites != 10 {
				t.Errorf("24bpp %dx%d: ratio %.3f writes %d/%d", r.Size, r.Size, r.Ratio, r.StdWrites, r.DevilWrites)
			}
		default:
			if r.StdWrites != 15 || r.DevilWrites != 17 {
				t.Errorf("%dbpp fill writes = %d/%d, want 15/17", r.BPP, r.StdWrites, r.DevilWrites)
			}
			if r.Size <= 10 && (r.Ratio < 0.88 || r.Ratio > 1.0) {
				t.Errorf("%dbpp %dx%d ratio = %.3f", r.BPP, r.Size, r.Size, r.Ratio)
			}
			if r.Size >= 100 && r.Ratio < 0.97 {
				t.Errorf("%dbpp %dx%d ratio = %.3f, want ~1.0", r.BPP, r.Size, r.Size, r.Ratio)
			}
		}
	}

	copies, err := Table4Rows(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range copies {
		if r.BPP >= 24 {
			if r.StdWrites != 9 || r.DevilWrites != 9 || r.Ratio < 0.999 {
				t.Errorf("copy %dbpp: writes %d/%d ratio %.3f", r.BPP, r.StdWrites, r.DevilWrites, r.Ratio)
			}
		} else if r.StdWrites != 15 || r.DevilWrites != 17 {
			t.Errorf("copy %dbpp writes = %d/%d, want 15/17", r.BPP, r.StdWrites, r.DevilWrites)
		}
	}
}

var (
	headingRE = regexp.MustCompile(`\S+(?: \S+)*`) // words joined by single spaces
	cellRE    = regexp.MustCompile(`\S+`)
)

// columnEnds returns the end offsets of the last n matches of re in line.
func columnEnds(line string, re *regexp.Regexp, n int) []int {
	locs := re.FindAllStringIndex(line, -1)
	if len(locs) < n {
		return nil
	}
	var ends []int
	for _, l := range locs[len(locs)-n:] {
		ends = append(ends, l[1])
	}
	return ends
}

// checkColumns requires the five right-aligned numeric columns of every
// data row (a line ending in "%") of a standard-vs-Devil table to sit
// exactly under the header's column titles, which a label wider than its
// column would shift.
func checkColumns(t *testing.T, out, label string) {
	t.Helper()
	const ncols = 5
	var want []int
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, label):
			want = columnEnds(line, headingRE, ncols)
		case strings.HasSuffix(line, "%"):
			if got := columnEnds(line, cellRE, ncols); want == nil || !slices.Equal(got, want) {
				t.Errorf("row %q: columns end at %v, header at %v", line, got, want)
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	out, err := Table2(256)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 2", "DMA", "block-transfer stubs"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
	checkColumns(t, out, "Transfer mode")
	out, err = Table3(100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rectangle test") {
		t.Error("Table 3 title missing")
	}
	out, err = Table4(100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "screen copy") {
		t.Error("Table 4 title missing")
	}
}

// TestTable5Shape verifies the sound-pipeline claims: the transfer is
// DAC-bound so both drivers deliver parity throughput, the Devil driver
// now costs fewer I/O operations than the hand-crafted one (the -O1
// batch-index pass elides the codec index rewrites on the ISR path), and
// larger rings mean fewer interrupts hence fewer operations.
func TestTable5Shape(t *testing.T) {
	rows, err := Table5Rows(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 3 ring sizes x 2 formats", len(rows))
	}
	for _, r := range rows {
		if r.Ratio < 0.995 || r.Ratio > 1.005 {
			t.Errorf("%s: ratio = %.4f, want ~1.0 (DAC-bound)", r.Config, r.Ratio)
		}
		// Same revolutions, same ISR protocol: the optimized stubs skip
		// two index-register writes per revolution, so the generated
		// driver undercuts the hand one across the whole run.
		if r.DevilOps >= r.StdOps {
			t.Errorf("%s: ops devil %d vs std %d, want devil < std (elided index writes)",
				r.Config, r.DevilOps, r.StdOps)
		}
	}
	// Throughput tracks the byte rate: 48 kHz 16-bit stereo moves ~8.7x
	// the bytes per second of 22.05 kHz 8-bit mono.
	if hi, lo := rows[1].StdMBs, rows[0].StdMBs; hi/lo < 8 || hi/lo > 9.5 {
		t.Errorf("rate scaling: %.4f / %.4f = %.2f, want ~8.7", hi, lo, hi/lo)
	}
}

func TestTable5Rendering(t *testing.T) {
	out, err := Table5(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 5", "Sound-DMA", "48000Hz 16-bit stereo"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5 output missing %q", want)
		}
	}
	checkColumns(t, out, "Configuration")
}

func TestTable6Shape(t *testing.T) {
	rows, err := Table6Rows(Table6Hosts)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(Table6Workers); len(rows) != want {
		t.Fatalf("rows = %d, want %d (2 variants x %d worker counts)", len(rows), want, len(Table6Workers))
	}
	for _, r := range rows {
		if r.Ops == 0 || r.Bytes == 0 || r.MBs <= 0 || r.OpsRate <= 0 {
			t.Errorf("%s W=%d: empty row %+v", r.Variant, r.Workers, r)
		}
	}
	// The acceptance bar: aggregate throughput at 8 workers beats the
	// 1-worker run by more than 4x, per variant. The balanced fleet in
	// fact scales linearly, so pin ~8x with slack for rounding.
	for i, r := range rows {
		if r.Workers != 8 {
			continue
		}
		base := rows[i-3] // workers sweep is {1,2,4,8,16}; W=1 is three rows back
		if base.Workers != 1 || base.Variant != r.Variant {
			t.Fatalf("sweep order changed: base row %+v for %+v", base, r)
		}
		speedup := r.MBs / base.MBs
		if speedup <= 4 {
			t.Errorf("%s: 8-worker throughput %.2fx the 1-worker run, want > 4x", r.Variant, speedup)
		}
		// Totals are worker-count invariant: same hosts, same virtual work.
		if r.Ops != base.Ops || r.Bytes != base.Bytes {
			t.Errorf("%s: totals drift with workers: %+v vs %+v", r.Variant, r, base)
		}
	}
}

func TestTable6Rendering(t *testing.T) {
	out, err := Table6(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 6", "device-farm scaling", "devil", "hand", "Speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 6 output missing %q", want)
		}
	}
}

func TestCaptureSoundAttribution(t *testing.T) {
	// The Table 5 refill trace, asserted on attributed events instead of
	// raw counters: every port operation must carry a driver phase, every
	// Devil-driver operation must additionally name the .dil variable its
	// stub was accessing, and the per-phase op counts pin the exact
	// hand-vs-devil delta (the generated stubs win the ISR — the codegen
	// index-write elision — and pay one extra flip-flop clear in arm).
	cfg := DefaultCaptureConfig()
	const revs = 4
	hand, err := CaptureSound("standard", cfg, revs)
	if err != nil {
		t.Fatalf("capture standard: %v", err)
	}
	devil, err := CaptureSound("devil", cfg, revs)
	if err != nil {
		t.Fatalf("capture devil: %v", err)
	}

	opsByPhase := func(events []obs.Event) (map[string]uint64, uint64) {
		m := map[string]uint64{}
		var total uint64
		for _, e := range events {
			if !e.Kind.IsOp() {
				continue
			}
			m[obs.PhaseOf(e.Span)]++
			total++
		}
		return m, total
	}

	for _, e := range hand {
		if e.Kind.IsOp() && obs.PhaseOf(e.Span) == "" {
			t.Fatalf("standard op without phase attribution: %v (span %q)", e, e.Span)
		}
	}
	for _, e := range devil {
		if !e.Kind.IsOp() {
			continue
		}
		if obs.PhaseOf(e.Span) == "" {
			t.Fatalf("devil op without phase attribution: %v (span %q)", e, e.Span)
		}
		if e.Span == obs.PhaseOf(e.Span) {
			t.Fatalf("devil op not attributed to a .dil variable: %v (span %q)", e, e.Span)
		}
	}

	handPhases, handTotal := opsByPhase(hand)
	devilPhases, devilTotal := opsByPhase(devil)
	if handTotal != 43 || devilTotal != 37 {
		t.Errorf("op totals = %d vs %d, want 43 vs 37", handTotal, devilTotal)
	}
	// The Table 5 comparison (post-Init traffic only): the exact
	// 37-vs-31 hand/devil delta at 4 revolutions.
	if play, want := handTotal-handPhases["init"], uint64(37); play != want {
		t.Errorf("standard play ops = %d, want %d", play, want)
	}
	if play, want := devilTotal-devilPhases["init"], uint64(31); play != want {
		t.Errorf("devil play ops = %d, want %d", play, want)
	}
	want := []struct {
		phase       string
		hand, devil uint64
	}{
		{"init", 6, 6},
		{"play.arm", 8, 9},   // the spec's unskippable flip-flop clear
		{"play.isr", 25, 18}, // index-write elision in the generated stubs
		{"play.start", 2, 2},
		{"play.stop", 2, 2},
	}
	for _, w := range want {
		if handPhases[w.phase] != w.hand || devilPhases[w.phase] != w.devil {
			t.Errorf("phase %q ops = %d vs %d, want %d vs %d",
				w.phase, handPhases[w.phase], devilPhases[w.phase], w.hand, w.devil)
		}
	}
}
