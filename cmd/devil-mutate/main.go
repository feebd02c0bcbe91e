// Devil-mutate runs the mutation-analysis study of the paper's §4.2
// (Table 1): it injects single-character errors into the hand-crafted C
// driver fragments, the Devil specifications, and the stub-calling driver
// fragments, and reports how many each language's checker catches.
//
// Usage:
//
//	devil-mutate [-device substring] [-codes] [-bitops]
//
// -codes refines the Devil rows: every detected specification mutant is
// attributed to the diagnostic code(s) that rejected it, so the table
// shows which §3.1 consistency property does the catching.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/mutation"
)

func main() {
	device := flag.String("device", "", "restrict to devices matching this substring")
	bitops := flag.Bool("bitops", false, "report the §1 bit-operation share instead")
	codes := flag.Bool("codes", false, "attribute detected Devil mutants to diagnostic codes")
	flag.Parse()

	if *bitops {
		fmt.Print(mutation.BitOpReport())
		return
	}
	run := mutation.RunStudy
	if *codes {
		run = mutation.RunDevilStudy
	}
	rows, err := run(*device)
	if err != nil {
		fmt.Fprintln(os.Stderr, "devil-mutate:", err)
		os.Exit(1)
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "devil-mutate: no device matches", *device)
		os.Exit(1)
	}
	if *codes {
		sort.Slice(rows, func(i, j int) bool { return rows[i].Device < rows[j].Device })
		for _, r := range rows {
			fmt.Print(mutation.FormatCodeTable(r.Device, r.Devil))
		}
		return
	}
	fmt.Print(mutation.FormatTable(rows))
}
