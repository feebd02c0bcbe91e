// Command bench is the repository's benchmark. It drives four seeded,
// closed-loop workloads from one client goroutine — disk-pio, gfx-fill,
// fleet and devilc — checks every request against an independent oracle,
// and prints the end-to-end metrics. A traced run (-trace 1) prints the
// per-layer metrics instead and writes its spans to -out.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload disk-pio -seed 1 -seconds 20 -trace 0
//
// Every metric prints as "workload metric value unit"; the last line is a
// JSON object with the keys correct, attempted, failed and metrics. The
// exit status is 1 when any request failed its oracle and 2 on a usage or
// set-up error. README.md holds the metric catalog and the rationale of
// each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setups is how many times a run builds its rig and warms it up; setup_s is
// their median, so a single slow set-up does not move it.
const setups = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload: disk-pio, gfx-fill, fleet, devilc or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed draws the same inputs")
	seconds := fs.Float64("seconds", 20, "length of each timed phase in seconds (whole cycles, at least one)")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics in a traced run instead of the end-to-end ones")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	root := fs.String("root", ".", "repository root holding the checked-in stubs the devilc oracle reads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: usage: bench -workload NAME -seed N -seconds S -trace 0|1")
		return 2
	}
	var chosen []*workload
	for i := range workloads {
		if *name == "all" || *name == workloads[i].name {
			chosen = append(chosen, &workloads[i])
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	fmt.Fprintf(stdout, "# nproc=%d GOMAXPROCS=%d %s %s/%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		*seed, *seconds, *trace)
	env := env{seed: *seed, root: *root, log: stderr}
	dur := time.Duration(*seconds * float64(time.Second))
	var reports []*report
	var err error
	if *trace == 1 {
		reports, err = traceRun(env, chosen, dur, *out)
	} else {
		for _, w := range chosen {
			var r *report
			if r, err = measure(env, w, dur, setups); err != nil {
				break
			}
			reports = append(reports, r)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	status := 0
	for _, r := range reports {
		if err := r.print(stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if !r.correct {
			status = 1
		}
	}
	return status
}

// env is what every rig is built from.
type env struct {
	seed uint64
	root string    // repository root (the devilc oracle reads stub files under it)
	log  io.Writer // oracle failures are described here
}

// metric is one named measurement.
type metric struct {
	name, unit string
	value      float64
}

// report is one workload's outcome: the metrics plus the request tally.
type report struct {
	workload          string
	attempted, failed int
	correct           bool
	notes             []string // extra "#" lines: input digest, fail ratio
	metrics           []metric
}

// print writes every metric as "workload metric value unit", then the
// result as one JSON line.
func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s %s\n", r.workload, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %v %s\n", r.workload, m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		return fmt.Errorf("%s: encoding result: %w", r.workload, err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
