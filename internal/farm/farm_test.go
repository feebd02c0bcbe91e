package farm

import (
	"runtime"
	"testing"

	snddrv "repro/internal/drivers/sound"
	"repro/internal/obs"
)

// TestFleetDeterminism is the -race stress test for host isolation: a
// fleet of N hosts over M workers must produce per-host Stats and
// virtual-time totals identical to running each host's twin alone. Any
// shared mutable state between hosts — a global span map, a shared
// clock, a common fault counter — shows up as either a race report or a
// diverging Result.
func TestFleetDeterminism(t *testing.T) {
	const n = 24
	for _, v := range []Variant{Hand, Devil} {
		solo := make([]Result, n)
		for i, h := range DefaultFleet(n, v) {
			solo[i] = h.Run()
			if solo[i].Err != nil {
				t.Fatalf("%s solo: %v", solo[i].Name, solo[i].Err)
			}
		}
		for _, workers := range []int{1, 3, 8} {
			fleet := RunFleet(DefaultFleet(n, v), workers)
			if err := fleet.Err(); err != nil {
				t.Fatalf("%s fleet W=%d: %v", v, workers, err)
			}
			for i, r := range fleet.Hosts {
				if r != solo[i] {
					t.Errorf("%s W=%d host %d: fleet %+v != solo %+v", v, workers, i, r, solo[i])
				}
			}
		}
	}
}

// TestFleetObservers attaches a per-host observer to every host in a
// concurrent fleet and checks each host's event stream carries only that
// host's virtual timestamps (monotone, ending at the host's clock).
func TestFleetObservers(t *testing.T) {
	const n = 9
	hosts := DefaultFleet(n, Devil)
	rings := make([]*obs.Ring, n)
	for i, h := range hosts {
		rings[i] = obs.NewRing(1 << 14)
		h.Observe(rings[i])
	}
	fleet := RunFleet(hosts, 4)
	if err := fleet.Err(); err != nil {
		t.Fatal(err)
	}
	for i, ring := range rings {
		ev := ring.Events()
		if len(ev) == 0 {
			t.Errorf("host %d: observer saw no events", i)
			continue
		}
		last := uint64(0)
		for _, e := range ev {
			if e.TS < last {
				t.Fatalf("host %d: timestamps went backwards (%d after %d) — cross-host mixing", i, e.TS, last)
			}
			last = e.TS
		}
		if now := hosts[i].Clock.Now(); last > now {
			t.Errorf("host %d: event TS %d beyond own clock %d", i, last, now)
		}
	}
}

// TestHostCostConservation: a host observed only through Observe accounts
// for all of its virtual time in events. For every workload kind and
// driver, the Costs of the host's events sum to its elapsed virtual time,
// and the machine's engine events are present, not just its port traffic.
func TestHostCostConservation(t *testing.T) {
	engine := map[WorkloadKind][]obs.Kind{
		IDE:   {obs.KindSeek, obs.KindIRQRaise},
		Sound: {obs.KindClockAdvance, obs.KindIRQRaise, obs.KindIRQConsume, obs.KindDMATC},
	}
	for _, v := range []Variant{Hand, Devil} {
		for _, h := range DefaultFleet(3, v) {
			var sum uint64
			seen := map[obs.Kind]bool{}
			h.Observe(obs.Func(func(e obs.Event) {
				sum += e.Cost
				seen[e.Kind] = true
			}))
			r := h.Run()
			if r.Err != nil {
				t.Fatalf("%s: %v", h.Name, r.Err)
			}
			if sum != r.VirtNS || r.VirtNS != h.Clock.Now() {
				t.Errorf("%s: event costs sum to %d ns, virtual time elapsed %d ns (clock %d)", h.Name, sum, r.VirtNS, h.Clock.Now())
			}
			for _, k := range engine[h.Spec().Kind] {
				if !seen[k] {
					t.Errorf("%s: no %s event", h.Name, k)
				}
			}
		}
	}
}

// TestFleetObserverIsolation is the regression test for the old
// process-global span tracking: two concurrent rigs, one observed and
// one not — the unobserved one must emit no spans and must not even have
// span tracking enabled.
func TestFleetObserverIsolation(t *testing.T) {
	cfg := snddrv.Config{Rate: 22050, RingBytes: 512}
	spec := WorkloadSpec{Kind: Sound, Variant: Devil, Sound: cfg, Revs: 4}
	observed := New("observed", spec)
	idle := New("idle", spec)
	ring := obs.NewRing(1 << 14)
	observed.Observe(ring)

	fleet := RunFleet([]*Host{observed, idle}, 2)
	if err := fleet.Err(); err != nil {
		t.Fatal(err)
	}
	if idle.Space.Spans().Enabled() {
		t.Error("observer on one host enabled span tracking on another")
	}
	if got := idle.Space.Spans().Current(); got != "" {
		t.Errorf("unobserved host holds span %q", got)
	}
	var spanned int
	for _, e := range ring.Events() {
		if e.Span != "" {
			spanned++
		}
	}
	if spanned == 0 {
		t.Error("observed host emitted no attributed events")
	}
}

// TestFleetScaling checks the virtual-time makespan divides by the
// worker count when the assignment is balanced (DefaultFleet guarantees
// this for worker counts dividing the fleet size).
func TestFleetScaling(t *testing.T) {
	base := RunFleet(DefaultFleet(48, Hand), 1)
	if err := base.Err(); err != nil {
		t.Fatal(err)
	}
	eight := RunFleet(DefaultFleet(48, Hand), 8)
	if err := eight.Err(); err != nil {
		t.Fatal(err)
	}
	if base.Ops != eight.Ops || base.Bytes != eight.Bytes {
		t.Fatalf("totals changed with workers: %+v vs %+v", base, eight)
	}
	speedup := eight.MBPerSec() / base.MBPerSec()
	if speedup < 4 {
		t.Errorf("8-worker aggregate throughput %.1f× the 1-worker run, want > 4×", speedup)
	}
}

// TestNewGfxHostAllocates pins what building a gfx host costs. The
// Permedia2 framebuffer (3 MiB at 1024×768) is allocated a page at a time
// as the host draws, so building the host allocates far less than one
// framebuffer.
func TestNewGfxHostAllocates(t *testing.T) {
	for _, v := range []Variant{Hand, Devil} {
		spec := WorkloadSpec{Kind: Gfx, Variant: v, Size: 64, Rects: 32}
		New("warm", spec) // one-time package set-up is not the host's cost
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h := New("gfx", spec)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(h)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
			t.Errorf("%s: building a gfx host allocated %d bytes, want < 256 KiB", v, got)
		}
	}
}
