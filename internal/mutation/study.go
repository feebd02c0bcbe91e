package mutation

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/devil/sema"
	"repro/internal/minic"
	"repro/internal/specs"
)

// Row is one device block of Table 1: the four result lines the paper
// reports (C, Devil, C_Devil, Devil+C_Devil). The Devil line also
// attributes its detected mutants to diagnostic codes.
type Row struct {
	Device string
	C      Result
	Devil  CodeResult
	CDevil Result
}

// Combined returns the Devil+C_Devil aggregate line.
func (r Row) Combined() Result { return r.Devil.Result.Add(r.CDevil) }

// RatioCDevil is the paper's "Ratio to C" for the C_Devil line: how many
// times more error-prone the C driver is than stub-based driver code.
func (r Row) RatioCDevil() float64 {
	d := r.CDevil.SitesWithUndetected()
	if d == 0 {
		return 0
	}
	return r.C.SitesWithUndetected() / d
}

// RatioCombined is the "Ratio to C" for the Devil+C_Devil line.
func (r Row) RatioCombined() float64 {
	d := r.Combined().SitesWithUndetected()
	if d == 0 {
		return 0
	}
	return r.C.SitesWithUndetected() / d
}

// study describes one device of the experiment.
type study struct {
	device  string
	cSrc    string
	specs   [][]byte
	stubSrc string
	prefix  string
}

var studies = []study{
	{
		device:  "Logitech Busmouse",
		cSrc:    BusmouseC,
		specs:   [][]byte{specs.Busmouse},
		stubSrc: BusmouseCDevil,
		prefix:  "bm",
	},
	{
		device:  "IDE (Intel PIIX4)",
		cSrc:    IdeC,
		specs:   [][]byte{specs.IDE, specs.PIIX4},
		stubSrc: IdeCDevil,
		prefix:  "ide",
	},
	{
		device:  "Ethernet (NE2000)",
		cSrc:    Ne2000C,
		specs:   [][]byte{specs.NE2000},
		stubSrc: Ne2000CDevil,
		prefix:  "ne",
	},
	{
		device:  "Interrupt (i8259A)",
		cSrc:    Pic8259C,
		specs:   [][]byte{specs.PIC8259},
		stubSrc: Pic8259CDevil,
		prefix:  "pic",
	},
	{
		device:  "DMA (i8237A)",
		cSrc:    Dma8237C,
		specs:   [][]byte{specs.DMA8237},
		stubSrc: Dma8237CDevil,
		prefix:  "dma",
	},
	{
		device:  "Audio (CS4236B)",
		cSrc:    Cs4236C,
		specs:   [][]byte{specs.CS4236},
		stubSrc: Cs4236CDevil,
		prefix:  "cs",
	},
	{
		device:  "Busmaster (PIIX4)",
		cSrc:    Piix4C,
		specs:   [][]byte{specs.PIIX4},
		stubSrc: Piix4CDevil,
		prefix:  "px",
	},
	{
		device:  "Video (Permedia2)",
		cSrc:    Permedia2C,
		specs:   [][]byte{specs.Permedia2},
		stubSrc: Permedia2CDevil,
		prefix:  "pm",
	},
}

// RunStudy executes the complete Table 1 experiment for one device by
// paper name ("busmouse", "ide", "ne2000") or for all with "".
func RunStudy(filter string) ([]Row, error) { return runStudies(filter, study.run) }

// RunDevilStudy runs only the Devil line of each matching device's Table 1
// row: the returned rows carry Device and Devil, and their C and C_Devil
// lines are left zero. The filter is RunStudy's.
func RunDevilStudy(filter string) ([]Row, error) {
	return runStudies(filter, func(st study) (Row, error) {
		row, _, err := st.devil()
		return row, err
	})
}

func runStudies(filter string, run func(study) (Row, error)) ([]Row, error) {
	var rows []Row
	for _, st := range studies {
		if filter != "" && !strings.Contains(strings.ToLower(st.device), strings.ToLower(filter)) {
			continue
		}
		row, err := run(st)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.device, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (st study) run() (Row, error) {
	row, env, err := st.devil()
	if err != nil {
		return row, err
	}

	// C: the hand-crafted fragment against the permissive mini-C checker.
	row.C = Run(st.cSrc, SitesForC(st.cSrc), func(s string) error {
		return minic.Check(s, minic.CEnv())
	})

	// C_Devil: the stub-calling fragment against the typed stub signatures.
	row.CDevil = Run(st.stubSrc, SitesForC(st.stubSrc), func(s string) error {
		return minic.Check(s, env)
	})
	return row, nil
}

// devil computes the Devil line of the study's row, and returns the stub
// environment of the unmutated specifications that the C_Devil line is
// checked against.
func (st study) devil() (Row, *minic.Env, error) {
	row := Row{Device: st.device}
	var compiled []*sema.Device
	for _, spec := range st.specs {
		dev, err := core.Compile(spec)
		if err != nil {
			return row, nil, err
		}
		compiled = append(compiled, dev)
	}

	// Devil: each specification against the full compiler, each detected
	// mutant attributed to its diagnostic codes. As in the paper, mutations
	// are applied "both to the Devil specification of the device, and to
	// procedure calls to the generated interface": a spec mutant that
	// still satisfies §3.1 but changes the *generated interface* — a
	// renamed device or variable, a renamed or retyped enum symbol, a
	// changed value range — breaks the rebuild of every driver using the
	// public-library stubs, so it counts as detected. Only mutants that
	// keep the interface identical and silently change device behaviour
	// (e.g. flipping a forced mask bit) survive.
	env := StubEnv(st.prefix, compiled...)
	for i, spec := range st.specs {
		src := string(spec)
		res := RunCodes(src, SitesForDevil([]byte(src)), func(dev *sema.Device) error {
			if dev.Name != compiled[i].Name {
				return fmt.Errorf("device renamed: generated header name changes")
			}
			devs := make([]*sema.Device, len(compiled))
			copy(devs, compiled)
			devs[i] = dev
			mutEnv := StubEnv(st.prefix, devs...)
			if !envEqual(env, mutEnv) {
				return fmt.Errorf("generated interface changed")
			}
			return minic.Check(st.stubSrc, mutEnv)
		})
		row.Devil = row.Devil.Add(res)
	}
	return row, env, nil
}

// BitOpShare measures the fraction of code lines in a mini-C fragment that
// perform bit manipulation (the paper's §1 claim: "bit operations can
// represent up to 30% of driver code", measured over Linux 2.2 drivers).
// It returns bit-manipulating lines, total code lines, and the share.
func BitOpShare(src string) (bitLines, codeLines int, share float64) {
	bitOpSet := map[string]bool{
		"&": true, "|": true, "^": true, "~": true, "<<": true, ">>": true,
		"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
	}
	lineHasCode := map[int]bool{}
	lineHasBit := map[int]bool{}
	for _, t := range minic.Lex(src) {
		if t.Kind == minic.TokEOF {
			break
		}
		lineHasCode[t.Line] = true
		if t.Kind == minic.TokOp && bitOpSet[t.Text] {
			lineHasBit[t.Line] = true
		}
	}
	for line := range lineHasCode {
		codeLines++
		if lineHasBit[line] {
			bitLines++
		}
	}
	if codeLines == 0 {
		return 0, 0, 0
	}
	return bitLines, codeLines, float64(bitLines) / float64(codeLines)
}

// BitOpReport renders the §1 bit-operation measurement over the three
// hand-crafted driver fragments.
func BitOpReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bit manipulation in hand-crafted hardware operating code (§1):\n")
	for _, st := range studies {
		ops, total, share := BitOpShare(st.cSrc)
		fmt.Fprintf(&b, "  %-20s %3d of %4d code lines = %4.1f%% bit manipulation\n",
			st.device, ops, total, share*100)
	}
	return b.String()
}

// envEqual compares two stub environments structurally.
func envEqual(a, b *minic.Env) bool {
	if len(a.Funcs) != len(b.Funcs) || len(a.Consts) != len(b.Consts) {
		return false
	}
	for name, fa := range a.Funcs {
		fb, ok := b.Funcs[name]
		if !ok || fa.Result != fb.Result || len(fa.Params) != len(fb.Params) {
			return false
		}
		for i := range fa.Params {
			if fa.Params[i] != fb.Params[i] {
				return false
			}
		}
	}
	for name, ta := range a.Consts {
		if tb, ok := b.Consts[name]; !ok || ta != tb {
			return false
		}
	}
	return true
}

// FormatTable renders rows in the paper's Table 1 layout.
func FormatTable(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-14s %6s %6s %9s %11s %11s %8s\n",
		"Device", "Language", "Lines", "Sites", "Mut/site", "Undet/site", "SitesUndet", "RatioC")
	line := func(dev, lang string, r Result, ratio float64) {
		rs := "-"
		if ratio > 0 {
			rs = fmt.Sprintf("%.1f", ratio)
		}
		fmt.Fprintf(&b, "%-20s %-14s %6d %6d %9.1f %11.1f %11.1f %8s\n",
			dev, lang, r.Lines, r.Sites, r.MutantsPerSite(), r.UndetectedPerSite(), r.SitesWithUndetected(), rs)
	}
	for _, row := range rows {
		line(row.Device, "C", row.C, 0)
		line("", "Devil", row.Devil.Result, 0)
		line("", "C_Devil", row.CDevil, row.RatioCDevil())
		line("", "Devil+C_Devil", row.Combined(), row.RatioCombined())
		b.WriteString("\n")
	}
	return b.String()
}
