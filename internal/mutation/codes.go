package mutation

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/devil/diag"
	"repro/internal/devil/sema"
)

// CodeProfile tallies detected mutants per diagnostic code. A mutant that
// triggers several distinct codes contributes one count to each, so the
// profile's sum can exceed the number of detected mutants.
type CodeProfile map[diag.Code]int

// Add merges another profile into the receiver, allocating it if needed.
func (p CodeProfile) add(o CodeProfile) CodeProfile {
	if p == nil {
		p = CodeProfile{}
	}
	for c, n := range o {
		p[c] += n
	}
	return p
}

// Codes returns the profile's codes in sorted order.
func (p CodeProfile) Codes() []diag.Code {
	var out []diag.Code
	for c := range p {
		out = append(out, c)
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// CodeResult is a Result whose detected mutants are attributed to the
// diagnostic codes that rejected them (Table 1's "which §3.1 property
// caught the error" refinement).
type CodeResult struct {
	Result
	// Codes attributes compiler-detected mutants. Every detected mutant
	// appears under at least one registered error code.
	Codes CodeProfile
	// Interface counts mutants the compiler accepts but that change the
	// generated interface, so rebuilding the stub-calling driver fails
	// (the paper applies mutations "both to the Devil specification ...
	// and to procedure calls to the generated interface").
	Interface int
}

// Add combines two code results.
func (r CodeResult) Add(o CodeResult) CodeResult {
	return CodeResult{
		Result:    r.Result.Add(o.Result),
		Codes:     r.Codes.add(o.Codes),
		Interface: r.Interface + o.Interface,
	}
}

// RunCodes is Run for Devil specifications, using the structured
// diagnostics of core.CompileDiags as the checker and attributing every
// detected mutant to the code(s) that rejected it. iface, when non-nil,
// classifies mutants the compiler accepts: a non-nil error marks the
// mutant detected by the generated-interface rebuild instead.
func RunCodes(src string, sites []Site, iface func(*sema.Device) error) CodeResult {
	if dev, diags := core.CompileDiags([]byte(src)); diags.HasErrors() {
		panic(fmt.Sprintf("mutation: baseline does not check: %v", diags.Err()))
	} else if iface != nil {
		if err := iface(dev); err != nil {
			panic(fmt.Sprintf("mutation: baseline fails the interface check: %v", err))
		}
	}
	res := CodeResult{
		Result: Result{Lines: strings.Count(src, "\n") + 1, Sites: len(sites)},
		Codes:  CodeProfile{},
	}
	for _, s := range sites {
		if src[s.Pos:s.Pos+len(s.Text)] != s.Text {
			panic(fmt.Sprintf("mutation: site text mismatch at %d: %q", s.Pos, s.Text))
		}
		for _, m := range mutate(s) {
			res.Mutants++
			mutant := src[:s.Pos] + m + src[s.Pos+len(s.Text):]
			dev, diags := core.CompileDiags([]byte(mutant))
			if diags.HasErrors() {
				seen := map[diag.Code]bool{}
				for _, d := range diags {
					if d.Severity == diag.SevError && !seen[d.Code] {
						seen[d.Code] = true
						res.Codes[d.Code]++
					}
				}
				continue
			}
			if iface != nil && iface(dev) != nil {
				res.Interface++
				continue
			}
			res.Undetected++
		}
	}
	return res
}

// FormatCodeTable renders the code attribution of one device's Devil row:
// one line per diagnostic code with its share of detected mutants.
func FormatCodeTable(device string, r CodeResult) string {
	var b strings.Builder
	detected := r.Mutants - r.Undetected
	fmt.Fprintf(&b, "%s: %d mutants, %d detected (%d by interface rebuild), %d undetected\n",
		device, r.Mutants, detected, r.Interface, r.Undetected)
	for _, c := range r.Codes.Codes() {
		info, _ := diag.Lookup(c)
		fmt.Fprintf(&b, "  %-5s %5d  %s\n", c, r.Codes[c], info.Summary)
	}
	return b.String()
}
