// Devil-lint runs the repository's custom Go static analyzers
// (internal/analysis) over a package pattern set.
//
// Usage:
//
//	devil-lint [-json] [-list] [packages...]
//
// With no patterns it analyzes ./... — the form the CI lint job runs.
// Findings print as "file:line:col: analyzer: message" (or a JSON array
// with -json) and any finding makes the exit status 1; operational
// failures (unloadable packages, type errors) exit 2.
//
// The analyzers enforce repository invariants the type system cannot:
//
//   - rawport: no raw bus.Space port I/O outside the bus, the device
//     simulators, the generated stubs, and the spec interpreter; the
//     hand-crafted baseline drivers opt in per file with //devil:rawport.
//   - spanpair: a span push's pop closure must be deferred or called,
//     never discarded.
//   - snapdecode: UnmarshalState and every snapshot walk (a function
//     taking *snap.Codec) decode through snap.Codec /
//     snap.UnmarshalParts, never raw payload indexing or encoding/binary.
//   - nodeprecated: no new calls to functions documented "Deprecated:".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/nodeprecated"
	"repro/internal/analysis/rawport"
	"repro/internal/analysis/snapdecode"
	"repro/internal/analysis/spanpair"
)

// analyzers is the repository's checker suite, in stable name order.
var analyzers = []*analysis.Analyzer{
	nodeprecated.Analyzer,
	rawport.Analyzer,
	snapdecode.Analyzer,
	spanpair.Analyzer,
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	list := flag.Bool("list", false, "print the analyzer catalog and exit")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "devil-lint:", err)
		os.Exit(2)
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "devil-lint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		if findings == nil {
			findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "devil-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
