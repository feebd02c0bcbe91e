package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// workload names one rig constructor and how many untimed cycles warm the
// rig up before timing starts (about 1% of a 20-second timed phase).
type workload struct {
	name   string
	build  func(e env, tr *tracer) (rig, error)
	warmup int
}

var workloads = []workload{
	{"disk-pio", newDisk, 16},
	{"gfx-fill", newGfx, 24},
	{"fleet", newFleet, 12},
	{"devilc", newDevilc, 10},
}

// A rig is one workload's machine, inputs and oracle. Requests come in
// cycles: the seed draws each cycle's order, addresses and data, but every
// cycle holds the same mix of request shapes, so the model numbers of a
// cycle (payload, port operations, virtual time) are the same for every
// seed and every cycle.
type rig interface {
	// size is the number of requests in a cycle.
	size() int
	// next draws the inputs of the next cycle.
	next()
	// do runs request i of the current cycle. It is the only timed call.
	do(i int) error
	// check verifies the output of request i and returns its model
	// numbers. It runs outside the timed window and must not allocate,
	// so the allocation counters see requests only.
	check(i int) (model, error)
	// verify runs once per cycle after the cycle's counters are read:
	// oracle work that allocates and, in a traced run, the untimed layer
	// probes. It returns the number of failed requests.
	verify() int
	// digest is a hash of every input drawn so far.
	digest() uint64
	// layers returns the per-layer metrics of a traced run of n requests.
	layers(n int, spans map[string]*spanAgg) []metric
}

// model holds the deterministic numbers of the simulated system.
type model struct {
	payload uint64 // bytes moved (sectors, pixels, samples) or emitted (devilc)
	ops     uint64 // port/MMIO operations, or port-access sites emitted (devilc)
	virtNS  uint64 // simulated nanoseconds
}

func (m *model) add(o model) {
	m.payload += o.payload
	m.ops += o.ops
	m.virtNS += o.virtNS
}

// tally counts attempted and failed requests and describes the first few
// failures.
type tally struct {
	log               io.Writer
	attempted, failed int
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.fail(err)
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(t.log, "bench: request failed: %v\n", err)
	}
}

// latencies keeps a uniform subsample of request latencies in fixed
// memory: when full it drops every other sample and from then on keeps
// every other request, so the benchmark's own memory does not grow with
// the run and move the heap metric.
type latencies struct {
	s      []time.Duration
	stride int // one request in stride is kept
	seen   int
}

func newLatencies() *latencies {
	return &latencies{s: make([]time.Duration, 0, 1<<16), stride: 1}
}

func (l *latencies) add(d time.Duration) {
	if l.seen%l.stride == 0 {
		if len(l.s) == cap(l.s) {
			for i := 0; i < len(l.s)/2; i++ {
				l.s[i] = l.s[2*i]
			}
			l.s = l.s[:len(l.s)/2]
			l.stride *= 2
		}
		if l.seen%l.stride == 0 {
			l.s = append(l.s, d)
		}
	}
	l.seen++
}

// phase is the outcome of one timed loop over whole cycles.
type phase struct {
	requests   int
	lat        *latencies    // per-request wall time
	wall       time.Duration // sum of lat
	cpu        time.Duration // process CPU time inside request windows
	mallocs    uint64
	allocBytes uint64
	heapPeak   uint64 // largest heap goal the collector set
	model      model  // totals over every request
	cycle      model  // totals of the first cycle
	consistent bool   // every cycle's totals equal the first's
}

// loop runs whole cycles of r until at least dur has passed and at least
// cycles cycles have run. With a tracer, each request is a root span named
// name.
func loop(r rig, t *tally, tr *tracer, name string, dur time.Duration, cycles int) phase {
	p := phase{lat: newLatencies(), consistent: true}
	lat := make([]time.Duration, r.size())
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for c := 0; c < cycles || time.Since(start) < dur; c++ {
		r.next()
		var cyc model
		runtime.ReadMemStats(&ms0)
		for i := range lat {
			cpu0 := cpuTime()
			root := tr.request(name)
			t0 := time.Now()
			err := r.do(i)
			lat[i] = time.Since(t0)
			tr.end(root)
			p.cpu += cpuTime() - cpu0
			m, cerr := r.check(i)
			t.record(errors.Join(err, cerr))
			cyc.add(m)
		}
		runtime.ReadMemStats(&ms1)
		p.mallocs += ms1.Mallocs - ms0.Mallocs
		p.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		// The goal is the heap size the collector lets the program reach
		// before it collects: the top of the heap's sawtooth, read without
		// sampling it at a lucky moment.
		p.heapPeak = max(p.heapPeak, ms1.NextGC)
		for _, d := range lat {
			p.wall += d
			p.lat.add(d)
		}
		p.requests += len(lat)
		p.model.add(cyc)
		if c == 0 {
			p.cycle = cyc
		} else if cyc != p.cycle {
			p.consistent = false
		}
		for n := r.verify(); n > 0; n-- {
			t.fail(fmt.Errorf("%s: end-of-cycle check", name))
		}
	}
	return p
}

// setUp builds a rig and runs its warm-up cycles, whose requests are
// checked like timed ones.
func setUp(e env, w *workload, t *tally) (rig, error) {
	r, err := w.build(e, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	loop(r, t, nil, w.name, 0, w.warmup)
	return r, nil
}

// measure is the untraced end-to-end run of one workload: n set-ups, then
// one timed phase of at least dur on the last rig.
func measure(e env, w *workload, dur time.Duration, n int) (*report, error) {
	t := &tally{log: e.log}
	var r rig
	var setupS []float64
	for k := 0; k < n; k++ {
		t0 := time.Now()
		var err error
		if r, err = setUp(e, w, t); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	p := loop(r, t, nil, w.name, dur, 1)

	reqs := float64(p.requests)
	wallS := p.wall.Seconds()
	// The model metrics come from one cycle's totals, so they read the
	// same to the last digit whatever the number of cycles run.
	virtMBps := 1.0 // devilc simulates no hardware; see README.md
	if p.cycle.virtNS > 0 {
		virtMBps = float64(p.cycle.payload) / (float64(p.cycle.virtNS) / 1e9) / 1e6
	}
	rep := &report{
		workload:  w.name,
		attempted: t.attempted,
		failed:    t.failed,
		correct:   t.failed == 0 && p.consistent,
		notes: []string{
			fmt.Sprintf("input_digest=%016x requests=%d cycles=%d", r.digest(), p.requests, p.requests/r.size()),
			fmt.Sprintf("fail_ratio=%g model_consistent=%t", float64(t.failed)/float64(t.attempted), p.consistent),
		},
		metrics: []metric{
			{"setup_s", "s", median(setupS)},
			{"req_per_s", "1/s", reqs / wallS},
			{"req_ms_p50", "ms", percentile(p.lat.s, 0.50).Seconds() * 1e3},
			{"req_ms_p99", "ms", percentile(p.lat.s, 0.99).Seconds() * 1e3},
			{"cpu_ms_per_req", "ms", p.cpu.Seconds() * 1e3 / reqs},
			{"allocs_per_req", "count", float64(p.mallocs) / reqs},
			{"alloc_KB_per_req", "KB", float64(p.allocBytes) / 1e3 / reqs},
			{"heap_peak_MB", "MB", float64(p.heapPeak) / 1e6},
			{"sim_MBps", "MB/s", float64(p.model.payload) / wallS / 1e6},
			{"host_ns_per_op", "ns", float64(p.wall.Nanoseconds()) / float64(p.model.ops)},
			{"virt_MBps", "MB/s", virtMBps},
			{"port_ops_per_req", "count", float64(p.cycle.ops) / float64(r.size())},
		},
	}
	return rep, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the q-quantile of ds, interpolating between the two
// nearest ranks.
func percentile(ds []time.Duration, q float64) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// newRand returns the workload's seeded generator; each workload draws
// from its own stream.
func newRand(seed uint64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// digest is an FNV-1a hash of drawn inputs, for the determinism test.
type digest uint64

func (d *digest) add(v uint64) {
	if *d == 0 {
		*d = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		*d ^= digest(byte(v >> (8 * i)))
		*d *= 1099511628211
	}
}
