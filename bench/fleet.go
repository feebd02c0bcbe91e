package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	snddrv "repro/internal/drivers/sound"
	"repro/internal/farm"
)

// fleet: one request is farm.RunFleet over 12 hosts on 2 workers. A cycle
// is 4 requests that together run every spec of a fixed pool of 48 once:
// IDE DMA reads of 32–128 sectors, gfx fills of 16–64 px × 16–48 rects,
// and sound playback through a 512 or 2048 B ring for 2–6 revolutions.
// The seed draws which hosts share a fleet and in what order, and every
// 4th sound host of the cycle is checkpointed at a seeded step with
// Host.Snapshot and resumed through farm.RestoreHost. The workload is
// simulator-bound (DMA copies, pixel fills, the codec sample clock) and
// allocation-heavy, and the only one that runs in parallel or touches the
// snapshot layer: stub and bus work should barely move it, while simulator,
// farm and snap work should.

const (
	fleetPool    = 48
	fleetHosts   = 12
	fleetCycle   = fleetPool / fleetHosts
	fleetWorkers = 2
)

// fleetPoolSpecs is the fixed pool: 16 specs of each workload kind.
func fleetPoolSpecs() []farm.WorkloadSpec {
	var pool []farm.WorkloadSpec
	for k := 0; k < 16; k++ {
		pool = append(pool, farm.WorkloadSpec{Kind: farm.IDE, Variant: farm.Devil, Sectors: 32 + k*96/15})
	}
	for _, size := range []int{16, 32, 48, 64} {
		for _, rects := range []int{16, 27, 37, 48} {
			pool = append(pool, farm.WorkloadSpec{Kind: farm.Gfx, Variant: farm.Devil, Size: size, Rects: rects})
		}
	}
	for k := 0; k < 16; k++ {
		cfg := snddrv.Config{Rate: 22050, RingBytes: 512}
		if k%2 == 1 {
			cfg = snddrv.Config{Rate: 44100, Stereo: true, Bits16: true, RingBytes: 512}
		}
		if k >= 8 {
			cfg.RingBytes = 2048
		}
		pool = append(pool, farm.WorkloadSpec{Kind: farm.Sound, Variant: farm.Devil, Sound: cfg, Revs: 2 + k%5})
	}
	return pool
}

type fleet struct {
	rng   *rand.Rand
	sum   digest
	pool  []farm.WorkloadSpec
	names []string
	refs  []farm.Result // each pool spec run solo, computed at set-up

	order []int         // the cycle's permutation of pool indices
	ckpt  []int         // per position: step to checkpoint the host at, 0 for none
	last  []farm.Result // results of the last request

	tr *tracer
	// Traced-run accumulators; solo times are per workload kind.
	solo      [3]time.Duration
	soloN     [3]int
	w1        time.Duration
	snaps     int
	snapBytes int
}

func newFleet(e env, tr *tracer) (rig, error) {
	f := &fleet{rng: newRand(e.seed, "fleet"), pool: fleetPoolSpecs(), tr: tr}
	for i, s := range f.pool {
		name := fmt.Sprintf("%s-%02d", s.Kind, i)
		f.names = append(f.names, name)
		r := farm.New(name, s).Run()
		if r.Err != nil {
			return nil, fmt.Errorf("reference host %s: %w", name, r.Err)
		}
		f.refs = append(f.refs, r)
	}
	f.order = make([]int, fleetPool)
	f.ckpt = make([]int, fleetPool)
	return f, nil
}

func (f *fleet) size() int { return fleetCycle }

func (f *fleet) next() {
	for i := range f.order {
		f.order[i] = i
	}
	f.rng.Shuffle(len(f.order), func(i, j int) { f.order[i], f.order[j] = f.order[j], f.order[i] })
	sound := 0
	for pos, idx := range f.order {
		f.ckpt[pos] = 0
		if spec := f.pool[idx]; spec.Kind == farm.Sound {
			if sound%4 == 0 {
				// A step boundary strictly inside the workload:
				// init, start, one step per revolution, finish.
				f.ckpt[pos] = 1 + f.rng.IntN(spec.Revs+2)
			}
			sound++
		}
		f.sum.add(uint64(idx)<<8 | uint64(f.ckpt[pos]))
	}
}

func (f *fleet) do(i int) error {
	hosts := make([]*farm.Host, fleetHosts)
	for j := range hosts {
		pos := i*fleetHosts + j
		idx := f.order[pos]
		sp := f.tr.begin(newSpanNames[f.pool[idx].Kind])
		hosts[j] = farm.New(f.names[idx], f.pool[idx])
		f.tr.end(sp)
		if f.ckpt[pos] > 0 {
			h, err := f.checkpoint(hosts[j], f.ckpt[pos])
			if err != nil {
				return fmt.Errorf("fleet: host %s: %w", f.names[idx], err)
			}
			hosts[j] = h
		}
	}
	sp := f.tr.begin("farm.fleet")
	f.last = farm.RunFleet(hosts, fleetWorkers).Hosts
	f.tr.end(sp)
	return nil
}

var newSpanNames = [...]string{farm.IDE: "farm.new.ide", farm.Gfx: "farm.new.gfx", farm.Sound: "farm.new.snd"}

// checkpoint runs h for steps steps, snapshots it and returns the host
// restored from the snapshot.
func (f *fleet) checkpoint(h *farm.Host, steps int) (*farm.Host, error) {
	for s := 0; s < steps; s++ {
		if _, err := h.StepOnce(); err != nil {
			return nil, err
		}
	}
	sp := f.tr.begin("snap.save")
	blob, err := h.Snapshot()
	f.tr.end(sp)
	if err != nil {
		return nil, err
	}
	f.snaps++
	f.snapBytes += len(blob)
	sp = f.tr.begin("snap.restore")
	defer f.tr.end(sp)
	return farm.RestoreHost(blob)
}

func (f *fleet) check(i int) (model, error) {
	var m model
	if len(f.last) != fleetHosts {
		return m, fmt.Errorf("fleet: request %d ran %d hosts", i, len(f.last))
	}
	for j, r := range f.last {
		m.payload += r.Bytes
		m.ops += r.Ops
		m.virtNS += r.VirtNS
		if ref := f.refs[f.order[i*fleetHosts+j]]; r != ref {
			return m, fmt.Errorf("fleet: host %s: result %+v, solo reference %+v", r.Name, r, ref)
		}
	}
	f.last = nil
	return m, nil
}

// verify takes the traced run's probes, on fresh hosts of the cycle's
// fleets: each host run alone, and each fleet on one worker.
func (f *fleet) verify() int {
	if f.tr == nil {
		return 0
	}
	fails := 0
	fresh := func(i int) []*farm.Host {
		hosts := make([]*farm.Host, fleetHosts)
		for j := range hosts {
			idx := f.order[i*fleetHosts+j]
			hosts[j] = farm.New(f.names[idx], f.pool[idx])
		}
		return hosts
	}
	for i := 0; i < fleetCycle; i++ {
		for j, h := range fresh(i) {
			idx := f.order[i*fleetHosts+j]
			t0 := time.Now()
			r := h.Run()
			f.solo[f.pool[idx].Kind] += time.Since(t0)
			f.soloN[f.pool[idx].Kind]++
			if r != f.refs[idx] {
				fails++
			}
		}
		hosts := fresh(i)
		t0 := time.Now()
		res := farm.RunFleet(hosts, 1)
		f.w1 += time.Since(t0)
		for j, r := range res.Hosts {
			if r != f.refs[f.order[i*fleetHosts+j]] {
				fails++
			}
		}
	}
	return fails
}

func (f *fleet) digest() uint64 { return uint64(f.sum) }

func (f *fleet) layers(n int, spans map[string]*spanAgg) []metric {
	usPer := func(name string) float64 {
		a := spans[name]
		if a == nil || a.n == 0 {
			return 0
		}
		return float64(a.dur) / 1e3 / float64(a.n)
	}
	var ms []metric
	var ops, hosts [3]float64
	for i, r := range f.refs {
		ops[f.pool[i].Kind] += float64(r.Ops)
		hosts[f.pool[i].Kind]++
	}
	w2 := spans["farm.fleet"].dur
	var solo time.Duration
	for k, kind := range []string{"ide", "gfx", "snd"} {
		solo += f.solo[k]
		ms = append(ms,
			metric{"farm.new_us_per_host." + kind, "us", usPer(newSpanNames[k])},
			metric{"farm.run_us_per_host." + kind, "us", float64(f.solo[k]) / 1e3 / float64(max(f.soloN[k], 1))},
			metric{"bus.ops_per_host." + kind, "count", ops[k] / hosts[k]},
		)
	}
	return append(ms,
		metric{"farm.parallel_eff", "ratio", float64(solo) / (fleetWorkers * float64(w2))},
		metric{"farm.speedup_w2", "ratio", float64(f.w1) / float64(w2)},
		metric{"snap.save_us", "us", usPer("snap.save")},
		metric{"snap.restore_us", "us", usPer("snap.restore")},
		metric{"snap.KB_per_host", "KB", float64(f.snapBytes) / 1e3 / float64(max(f.snaps, 1))},
	)
}
