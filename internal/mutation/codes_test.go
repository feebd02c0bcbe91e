package mutation

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/devil/diag"
	"repro/internal/specs"
)

// mutant applies one curated mutation to a spec: uniqueOld must occur
// exactly once and is replaced by new.
func mutant(t *testing.T, spec []byte, uniqueOld, new string) string {
	t.Helper()
	src := string(spec)
	if n := strings.Count(src, uniqueOld); n != 1 {
		t.Fatalf("context %q occurs %d times, want 1", uniqueOld, n)
	}
	return strings.Replace(src, uniqueOld, new, 1)
}

// errCodes compiles a mutant and returns its distinct error codes.
func errCodes(t *testing.T, src string) map[diag.Code]bool {
	t.Helper()
	_, diags := core.CompileDiags([]byte(src))
	if !diags.HasErrors() {
		t.Fatal("mutant compiles cleanly, expected an error")
	}
	out := map[diag.Code]bool{}
	for _, d := range diags {
		if d.Severity == diag.SevError {
			if !diag.Known(d.Code) {
				t.Errorf("unregistered code %s", d.Code)
			}
			out[d.Code] = true
		}
	}
	return out
}

// hasMutant reports whether the study's mutation rules can produce text m
// at a site.
func hasMutant(s Site, m string) bool {
	for _, x := range mutate(s) {
		if x == m {
			return true
		}
	}
	return false
}

// TestMutantCodes: curated single-token mutants of the busmouse spec
// (Figure 1) must be rejected with the exact diagnostic code of the §3.1
// property they violate — the refinement of Table 1's "detected" column.
func TestMutantCodes(t *testing.T) {
	cases := []struct {
		name      string
		old, new  string
		want      diag.Code
		site      Site   // the mutated token, for legitimacy checking
		siteAfter string // the token's post-mutation text
	}{
		{"unknown name", "= sig_reg, volatile", "= sig_rag, volatile", "E102",
			Site{Text: "sig_reg", Class: ClassIdent}, "sig_rag"},
		{"offset out of domain", "= base @ 1 :", "= base @ 4 :", "E103",
			Site{Text: "1", Class: ClassNumber}, "4"},
		{"mask too narrow", "'1001000.'", "'100100.'", "E104",
			Site{Text: "1001000.", Class: ClassBits}, "100100."},
		{"bit made irrelevant", "'1001000.'", "'1001000*'", "E201",
			Site{Text: "1001000.", Class: ClassBits}, "1001000*"},
		{"bit made write-forced", "'1001000.'", "'10010000'", "E202",
			Site{Text: "1001000.", Class: ClassBits}, "10010000"},
		{"duplicate declaration", "register y_low ", "register x_low ", "E101",
			Site{Text: "y_low", Class: ClassIdent}, "x_low"},
		{"relevant bit unowned", "pre {index = 1}, mask '****....'",
			"pre {index = 1}, mask '.***....'", "E204",
			Site{Text: "****....", Class: ClassBits}, ".***...."},
		{"range arrow broken", "[7..5]", "[7.5]", "E001",
			Site{Text: "..", Class: ClassOp}, "."},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !hasMutant(tc.site, tc.siteAfter) {
				t.Errorf("%q -> %q is not a legal mutant of the study's rules",
					tc.site.Text, tc.siteAfter)
			}
			src := mutant(t, specs.Busmouse, tc.old, tc.new)
			codes := errCodes(t, src)
			if !codes[tc.want] {
				t.Errorf("codes = %v, want %s", keys(codes), tc.want)
			}
		})
	}
}

func keys(m map[diag.Code]bool) []diag.Code {
	var out []diag.Code
	for c := range m {
		out = append(out, c)
	}
	return out
}

// TestDevilCodesBusmouse checks the code attribution of the busmouse
// Devil row: every detected mutant accounted for by a registered error
// code or the interface check.
func TestDevilCodesBusmouse(t *testing.T) {
	rows, err := RunStudy("busmouse")
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0].Devil
	if r.Mutants == 0 || r.Sites == 0 {
		t.Fatalf("empty Devil row: %+v", r.Result)
	}
	detected := r.Mutants - r.Undetected
	if r.Interface <= 0 || r.Interface >= detected {
		t.Errorf("interface-detected = %d of %d detected, expected a strict subset", r.Interface, detected)
	}
	var sum int
	for c, n := range r.Codes {
		info, ok := diag.Lookup(c)
		if !ok || info.Severity != diag.SevError {
			t.Errorf("profile contains non-error code %s", c)
		}
		if n <= 0 {
			t.Errorf("code %s has count %d", c, n)
		}
		sum += n
	}
	// Every compiler-detected mutant carries at least one code.
	if sum < detected-r.Interface {
		t.Errorf("code counts sum to %d, fewer than the %d compiler-detected mutants",
			sum, detected-r.Interface)
	}
	for _, want := range []diag.Code{"E001", "E101", "E102", "E103", "E104", "E201", "E202", "E204", "E208"} {
		if r.Codes[want] == 0 {
			t.Errorf("busmouse profile missing %s; got %v", want, r.Codes.Codes())
		}
	}
	// The report renders with summaries from the registry.
	out := FormatCodeTable("Logitech Busmouse", r)
	for _, want := range []string{"E102", "unknown name", "by interface rebuild"} {
		if !strings.Contains(out, want) {
			t.Errorf("code table missing %q:\n%s", want, out)
		}
	}
}

// TestDevilStudyMatchesStudy: the Devil-only run computes the same Devil
// line as the full study, and none of the C lines.
func TestDevilStudyMatchesStudy(t *testing.T) {
	full, err := RunStudy("busmouse")
	if err != nil {
		t.Fatal(err)
	}
	devil, err := RunDevilStudy("busmouse")
	if err != nil {
		t.Fatal(err)
	}
	want := Row{Device: full[0].Device, Devil: full[0].Devil}
	if len(devil) != 1 || !reflect.DeepEqual(devil[0], want) {
		t.Errorf("RunDevilStudy = %+v, want %+v", devil, want)
	}
}

// TestDevilCodesAllDevices pins which consistency checks fire for each
// library device: the shared core plus the device-specific properties
// (serialization guards on the i8259A/i8237A, register families on the
// CS4236B, port-slot overlap on the windowed devices).
func TestDevilCodesAllDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("full mutation study in -short mode")
	}
	rows := allRows(t)
	common := []diag.Code{"E001", "E102", "E103", "E104", "E106", "E107", "E201", "E202", "E203", "E204", "E206"}
	extra := map[string][]diag.Code{
		"Logitech Busmouse":  {"E101", "E207", "E208"},
		"IDE (Intel PIIX4)":  {"E207", "E210"},
		"Ethernet (NE2000)":  {"E101", "E207", "E208", "E210"},
		"Interrupt (i8259A)": {"E101", "E109", "E207", "E208"},
		"DMA (i8237A)":       {"E101", "E109", "E207"},
		"Audio (CS4236B)":    {"E101", "E105", "E210"},
		"Busmaster (PIIX4)":  nil,
		"Video (Permedia2)":  {"E207"},
	}
	for _, row := range rows {
		dev, r := row.Device, row.Devil
		want := append(append([]diag.Code{}, common...), extra[dev]...)
		for _, c := range want {
			if r.Codes[c] == 0 {
				t.Errorf("%s: expected code %s absent; profile %v", dev, c, r.Codes.Codes())
			}
		}
		if r.Interface == 0 {
			t.Errorf("%s: no interface-rebuild detections", dev)
		}
		// Unknown names dominate (identifiers dominate the sites).
		if max := maxCode(r.Codes); max != "E102" {
			t.Errorf("%s: most frequent code = %s, want E102", dev, max)
		}
	}
}

func maxCode(p CodeProfile) diag.Code {
	var best diag.Code
	for c, n := range p {
		if best == "" || n > p[best] || (n == p[best] && c < best) {
			best = c
		}
	}
	return best
}
