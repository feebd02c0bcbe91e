package bus

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/snap"
)

func newSpace() (*Space, *Clock) {
	var clk Clock
	return NewSpace("test", &clk, Costs{AccessNS: 100, OverheadNS: 10}), &clk
}

func TestRAMRoundTrip(t *testing.T) {
	s, _ := newSpace()
	s.MustMap(0x100, 64, NewRAM(64))

	s.Out8(0x100, 0xab)
	if got := s.In8(0x100); got != 0xab {
		t.Errorf("In8 = %#x", got)
	}
	s.Out16(0x110, 0x1234)
	if got := s.In16(0x110); got != 0x1234 {
		t.Errorf("In16 = %#x", got)
	}
	if got := s.In8(0x110); got != 0x34 {
		t.Errorf("little-endian low byte = %#x", got)
	}
	s.Out32(0x120, 0xdeadbeef)
	if got := s.In32(0x120); got != 0xdeadbeef {
		t.Errorf("In32 = %#x", got)
	}
}

func TestRAMRoundTripProperty(t *testing.T) {
	ram := NewRAM(8)
	f := func(v uint32, off8 uint8) bool {
		off := uint32(off8 % 4)
		ram.BusWrite(off, 32, v)
		return ram.BusRead(off, 32) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsAndClock(t *testing.T) {
	s, clk := newSpace()
	s.MustMap(0, 16, NewRAM(16))

	s.Out8(0, 1)
	s.In8(0)
	st := s.Stats()
	if st.Out != 1 || st.In != 1 || st.Ops() != 2 {
		t.Errorf("stats = %+v", st)
	}
	if clk.Now() != 220 { // 2 * (100+10)
		t.Errorf("clock = %d, want 220", clk.Now())
	}

	buf := make([]uint16, 8)
	s.InBlock16(0, buf)
	st = s.Stats()
	if st.BlockIn != 1 || st.BlockUnits != 8 || st.Ops() != 3 {
		t.Errorf("block stats = %+v", st)
	}
	// Block: one overhead + 8 accesses.
	if clk.Now() != 220+10+8*100 {
		t.Errorf("clock = %d", clk.Now())
	}

	s.ResetStats()
	if s.Stats().Ops() != 0 {
		t.Error("reset did not clear stats")
	}
}

func TestBlockCheaperThanLoop(t *testing.T) {
	// The cost model behind Table 2's block-vs-loop result: a block of n
	// units pays the CPU overhead once.
	sBlock, clkBlock := newSpace()
	sBlock.MustMap(0, 16, NewRAM(16))
	buf := make([]uint16, 128)
	sBlock.InBlock16(0, buf)

	sLoop, clkLoop := newSpace()
	sLoop.MustMap(0, 16, NewRAM(16))
	for i := 0; i < 128; i++ {
		sLoop.In16(0)
	}
	if clkBlock.Now() >= clkLoop.Now() {
		t.Errorf("block %d ns should beat loop %d ns", clkBlock.Now(), clkLoop.Now())
	}
}

func TestOverlapRejected(t *testing.T) {
	s, _ := newSpace()
	s.MustMap(0x10, 8, NewRAM(8))
	if err := s.Map(0x14, 8, NewRAM(8)); err == nil {
		t.Error("overlapping map accepted")
	}
	if err := s.Map(0x18, 8, NewRAM(8)); err != nil {
		t.Errorf("adjacent map rejected: %v", err)
	}
}

// TestMapRejectsBadRanges: an empty range and one whose end wraps past
// 2^32 are errors; a range ending exactly at 2^32 is valid and still
// takes part in the overlap check.
func TestMapRejectsBadRanges(t *testing.T) {
	s, _ := newSpace()
	if err := s.Map(0x10, 0, NewRAM(1)); err == nil {
		t.Error("empty range accepted")
	}
	if err := s.Map(0xffffff00, 0x200, NewRAM(1)); err == nil {
		t.Error("range wrapping past 2^32 accepted")
	}
	if err := s.Map(0xffffff00, 0x100, NewRAM(0x100)); err != nil {
		t.Errorf("range ending at 2^32 rejected: %v", err)
	}
	if err := s.Map(0xfffffff0, 0x10, NewRAM(0x10)); err == nil {
		t.Error("range overlapping the top of the space accepted")
	}
	if err := s.Map(0, 0x10, NewRAM(0x10)); err != nil {
		t.Errorf("range at 0 rejected next to one ending at 2^32: %v", err)
	}
}

// TestLookupBounds probes each range just outside and just inside both
// ends, including ranges whose neighbours wrap around 0 and 2^32.
func TestLookupBounds(t *testing.T) {
	for _, r := range []struct{ base, size uint32 }{
		{0x100, 0x10},
		{0, 1},
		{0x1f0, 8},
		{0xffffff00, 0x100},
		{0xffffffff, 1},
	} {
		s, _ := newSpace()
		s.MustMap(r.base, r.size, NewRAM(int(r.size)))
		for _, c := range []struct {
			port uint32
			hit  bool
		}{
			{r.base - 1, false},
			{r.base, true},
			{r.base + r.size - 1, true},
			{r.base + r.size, false},
		} {
			if got := s.lookup(c.port) != nil; got != c.hit {
				t.Errorf("[%#x,+%#x): lookup(%#x) hit = %v, want %v", r.base, r.size, c.port, got, c.hit)
			}
		}
	}
}

func TestUnmappedFaults(t *testing.T) {
	s, _ := newSpace()
	if got := s.In8(0x9999); got != 0xff {
		t.Errorf("unmapped read = %#x, want 0xff", got)
	}
	s.Out8(0x9999, 1)
	if st := s.Stats(); st.Faults != 2 {
		t.Errorf("faults = %d", st.Faults)
	}
}

func TestStrictFaultsPanic(t *testing.T) {
	s, _ := newSpace()
	s.StrictFaults = true
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.In8(0x9999)
}

func TestReentrantHandler(t *testing.T) {
	// A handler that performs I/O on the same space during a write — the
	// interrupt-handler pattern — must not deadlock.
	s, _ := newSpace()
	s.MustMap(0x100, 16, NewRAM(16))
	s.MustMap(0, 1, FuncHandler{
		Write: func(off uint32, w int, v uint32) {
			s.Out8(0x100, uint8(v))
		},
	})
	s.Out8(0, 0x42)
	if got := s.In8(0x100); got != 0x42 {
		t.Errorf("reentrant write lost: %#x", got)
	}
}

func TestIRQLine(t *testing.T) {
	var l IRQLine
	if l.Consume() {
		t.Error("consume on empty line")
	}
	l.Raise()
	l.Raise()
	if l.Total() != 2 {
		t.Errorf("total = %d", l.Total())
	}
	if !l.Consume() || !l.Consume() || l.Consume() {
		t.Error("consume sequence wrong")
	}
}

func TestBlockFaultChargesNothing(t *testing.T) {
	// A faulting block transfer moved no data: it must book only the
	// fault — no BlockIn/BlockOut, no BlockUnits, no virtual time, and
	// the destination buffer must be left alone.
	s, clk := newSpace()
	s.MustMap(0, 16, NewRAM(16))
	s.In8(0) // sanity traffic so the clock is non-zero
	before := clk.Now()

	b16 := []uint16{0x1111, 0x2222}
	b32 := []uint32{0x33333333}
	s.InBlock16(0x9999, b16)
	s.OutBlock16(0x9999, b16)
	s.InBlock32(0x9999, b32)
	s.OutBlock32(0x9999, b32)

	st := s.Stats()
	if st.BlockIn != 0 || st.BlockOut != 0 || st.BlockUnits != 0 {
		t.Errorf("faulting blocks were booked: %+v", st)
	}
	if st.Faults != 4 {
		t.Errorf("faults = %d, want 4", st.Faults)
	}
	if clk.Now() != before {
		t.Errorf("faulting blocks advanced the clock by %d ns", clk.Now()-before)
	}
	if b16[0] != 0x1111 || b16[1] != 0x2222 || b32[0] != 0x33333333 {
		t.Errorf("faulting InBlock touched the buffer: %v %v", b16, b32)
	}
}

func TestStrictFaultsAllPaths(t *testing.T) {
	// Every access width and both block directions must escalate under
	// StrictFaults, not just In8.
	paths := map[string]func(s *Space){
		"in8":        func(s *Space) { s.In8(0x9999) },
		"out8":       func(s *Space) { s.Out8(0x9999, 0) },
		"in16":       func(s *Space) { s.In16(0x9999) },
		"out16":      func(s *Space) { s.Out16(0x9999, 0) },
		"in32":       func(s *Space) { s.In32(0x9999) },
		"out32":      func(s *Space) { s.Out32(0x9999, 0) },
		"inblock16":  func(s *Space) { s.InBlock16(0x9999, make([]uint16, 2)) },
		"outblock16": func(s *Space) { s.OutBlock16(0x9999, make([]uint16, 2)) },
		"inblock32":  func(s *Space) { s.InBlock32(0x9999, make([]uint32, 2)) },
		"outblock32": func(s *Space) { s.OutBlock32(0x9999, make([]uint32, 2)) },
	}
	for name, access := range paths {
		t.Run(name, func(t *testing.T) {
			s, _ := newSpace()
			s.StrictFaults = true
			defer func() {
				if recover() == nil {
					t.Errorf("%s of unmapped port did not panic", name)
				}
			}()
			access(s)
		})
	}
}

func TestIRQLineInterleavings(t *testing.T) {
	var l IRQLine
	// Raise-raise-consume-raise-consume-consume: the latch is a counter,
	// not a flag, so no edge is lost regardless of interleaving.
	l.Raise()
	l.Raise()
	if !l.Pending() {
		t.Error("pending after two raises")
	}
	if !l.Consume() {
		t.Error("first consume")
	}
	l.Raise()
	if !l.Consume() || !l.Consume() {
		t.Error("latched interrupts lost")
	}
	if l.Pending() || l.Consume() {
		t.Error("line not empty after draining")
	}
	if l.Total() != 3 {
		t.Errorf("total = %d, want 3", l.Total())
	}
}

func TestIRQLineConcurrentRaise(t *testing.T) {
	// Concurrent raisers against a consuming drain; run under -race this
	// exercises the lock discipline, and the counts must balance exactly.
	var l IRQLine
	const raisers, perRaiser = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < raisers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perRaiser; j++ {
				l.Raise()
			}
		}()
	}
	consumed := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for consumed < raisers*perRaiser {
			if l.Consume() {
				consumed++
			} else {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	<-done
	if l.Total() != raisers*perRaiser {
		t.Errorf("total = %d, want %d", l.Total(), raisers*perRaiser)
	}
	if l.Pending() {
		t.Error("interrupts left pending after balanced drain")
	}
}

func TestObserverEmission(t *testing.T) {
	s, clk := newSpace()
	s.MustMapNamed("chip", 0x100, 16, NewRAM(16))
	ring := obs.NewRing(64)
	s.SetObserver(ring)
	defer s.SetObserver(nil)

	s.Out8(0x100, 0x42)
	s.In8(0x100)
	s.InBlock16(0x100, make([]uint16, 4))
	s.In8(0x9999) // fault

	ev := ring.Events()
	if len(ev) != 4 {
		t.Fatalf("events = %d, want 4: %v", len(ev), ev)
	}
	if ev[0].Kind != obs.KindPortWrite || ev[0].Source != "chip" || ev[0].Value != 0x42 || ev[0].Cost != 110 {
		t.Errorf("write event = %+v", ev[0])
	}
	if ev[1].Kind != obs.KindPortRead || ev[1].Value != 0x42 {
		t.Errorf("read event = %+v", ev[1])
	}
	if ev[2].Kind != obs.KindBlockIn || ev[2].Units != 4 || ev[2].Cost != 10+4*100 {
		t.Errorf("block event = %+v", ev[2])
	}
	// The fault names the space, not a mapping, and carries the cost a
	// single access is charged even when nothing answers.
	if ev[3].Kind != obs.KindFault || ev[3].Source != "test" || ev[3].Detail != "read" || ev[3].Cost != 110 {
		t.Errorf("fault event = %+v", ev[3])
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Errorf("timestamps regress: %d < %d", ev[i].TS, ev[i-1].TS)
		}
	}
	if last := ev[len(ev)-1].TS; last > clk.Now() {
		t.Errorf("event TS %d beyond clock %d", last, clk.Now())
	}
}

// TestClockObserverEmission: an observer attached through a space sees
// its clock's advances and charged engine events, stamped from the clock.
func TestClockObserverEmission(t *testing.T) {
	s, clk := newSpace()
	ring := obs.NewRing(8)
	s.SetObserver(ring)
	defer s.SetObserver(nil)
	clk.Advance(250)
	clk.Charge(obs.Event{Kind: obs.KindSeek, Source: "disk", Cost: 30})
	ev := ring.Events()
	if len(ev) != 2 || ev[0].Kind != obs.KindClockAdvance || ev[0].Source != "clock" || ev[0].Cost != 250 || ev[0].TS != 250 {
		t.Fatalf("clock events = %v", ev)
	}
	if ev[1].Kind != obs.KindSeek || ev[1].Cost != 30 || ev[1].TS != 280 || clk.Now() != 280 {
		t.Errorf("charged event = %+v at clock %d", ev[1], clk.Now())
	}
}

// TestIRQLineObserverEmission: a line emits through its host clock, so
// the observer attached to the host's space sees it; a line without a
// clock only latches.
func TestIRQLineObserverEmission(t *testing.T) {
	s, clk := newSpace()
	clk.Advance(77)
	ring := obs.NewRing(8)
	s.SetObserver(ring)
	defer s.SetObserver(nil)
	var bare IRQLine
	bare.Raise()
	l := IRQLine{Name: "irq5", Clock: clk}
	l.Raise()
	l.Consume()
	l.Consume() // empty: must not emit
	ev := ring.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %v", ev)
	}
	if ev[0].Kind != obs.KindIRQRaise || ev[0].Source != "irq5" || ev[0].Detail != "irq5" || ev[0].TS != 77 {
		t.Errorf("raise event = %+v", ev[0])
	}
	if ev[1].Kind != obs.KindIRQConsume {
		t.Errorf("consume event = %+v", ev[1])
	}
	if !bare.Consume() {
		t.Error("unclocked line did not latch")
	}
}

func TestObserverSpanAttribution(t *testing.T) {
	s, _ := newSpace()
	s.MustMap(0, 16, NewRAM(16))
	ring := obs.NewRing(8)
	s.SetObserver(ring) // enables span tracking on the host's Spans
	defer s.SetObserver(nil)

	done := s.Spans().Span("phase")
	s.Out8(0, 1)
	done()
	s.Out8(0, 2)

	ev := ring.Events()
	if len(ev) != 2 || ev[0].Span != "phase" || ev[1].Span != "" {
		t.Errorf("span attribution = %q, %q", ev[0].Span, ev[1].Span)
	}
}

func TestSetObserverTogglesSpanTracking(t *testing.T) {
	s, _ := newSpace()
	if s.Spans().Enabled() {
		t.Fatal("span tracking on at test entry")
	}
	s.SetObserver(obs.Func(func(obs.Event) {}))
	if !s.Spans().Enabled() {
		t.Error("attaching an observer did not enable span tracking")
	}
	s.SetObserver(obs.Func(func(obs.Event) {})) // replace: no double-enable
	s.SetObserver(nil)
	if s.Spans().Enabled() {
		t.Error("detaching the observer did not disable span tracking")
	}
}

// TestSetObserverObservesWholeHost: the observer lives on the clock, so
// attaching through one space observes every space on that clock, and
// span tracking is enabled once for the host.
func TestSetObserverObservesWholeHost(t *testing.T) {
	io, clk := newSpace()
	mmio := NewSpace("mmio", clk, DefaultMemCosts())
	io.MustMap(0, 16, NewRAM(16))
	mmio.MustMap(0, 16, NewRAM(16))
	ring := obs.NewRing(8)
	io.SetObserver(ring)
	mmio.Out32(0, 1)
	if ev := ring.Events(); len(ev) != 1 || ev[0].Source != "mmio" {
		t.Fatalf("events = %v", ev)
	}
	mmio.SetObserver(nil)
	if io.Spans().Enabled() {
		t.Error("detaching through the second space left span tracking on")
	}
}

// TestObserverSpanIsolationAcrossHosts pins the per-host refactor: an
// observer on one space must not enable span tracking — or mix stacks —
// on an unrelated space with its own clock.
func TestObserverSpanIsolationAcrossHosts(t *testing.T) {
	a, _ := newSpace()
	b, _ := newSpace()
	a.MustMap(0, 16, NewRAM(16))
	b.MustMap(0, 16, NewRAM(16))
	ring := obs.NewRing(8)
	a.SetObserver(ring)
	defer a.SetObserver(nil)

	if b.Spans().Enabled() {
		t.Fatal("observer on host A enabled spans on host B")
	}
	defer a.Spans().Span("a.phase")()
	b.Spans().Span("b.phase")() // disabled: must not record
	if got := b.Spans().Current(); got != "" {
		t.Errorf("unobserved host recorded span %q", got)
	}
	a.Out8(0, 1)
	ev := ring.Events()
	if len(ev) != 1 || ev[0].Span != "a.phase" {
		t.Fatalf("observed host attribution = %+v", ev)
	}
}

// ramBoundaryCase drives one access width at the last offset where the
// access no longer fits, pinning the fault book-keeping for the bug where
// out-of-range bytes were silently dropped with no fault recorded.
func TestRAMOutOfRangeFaults(t *testing.T) {
	cases := []struct {
		name   string
		access func(s *Space)
	}{
		{"read8-at-len", func(s *Space) { s.In8(16) }},
		{"read16-at-len-1", func(s *Space) { s.In16(15) }},
		{"read32-at-len-3", func(s *Space) { s.In32(13) }},
		{"write8-at-len", func(s *Space) { s.Out8(16, 0xff) }},
		{"write16-at-len-1", func(s *Space) { s.Out16(15, 0xffff) }},
		{"write32-at-len-3", func(s *Space) { s.Out32(13, 0xffffffff) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newSpace()
			ram := NewRAM(16)
			s.MustMap(0, 32, ram) // window wider than backing: RAM must fault
			tc.access(s)
			if ram.Faults != 1 {
				t.Errorf("Faults = %d, want 1", ram.Faults)
			}
		})
	}
}

func TestRAMOutOfRangeStrictPanics(t *testing.T) {
	ram := NewRAM(16)
	ram.Strict = true
	defer func() {
		if recover() == nil {
			t.Fatal("Strict RAM overrun did not panic")
		}
		if ram.Faults != 1 {
			t.Errorf("Faults = %d, want 1", ram.Faults)
		}
	}()
	ram.BusRead(15, 16)
}

func TestRAMInRangeBoundaryNoFault(t *testing.T) {
	ram := NewRAM(16)
	ram.Strict = true
	ram.BusWrite(15, 8, 0xab)    // last byte: fits
	ram.BusWrite(14, 16, 0x1234) // last two bytes: fits
	ram.BusWrite(12, 32, 0xcafe) // last four bytes: fits
	_ = ram.BusRead(15, 8)
	_ = ram.BusRead(14, 16)
	_ = ram.BusRead(12, 32)
	if ram.Faults != 0 {
		t.Errorf("Faults = %d on in-range boundary accesses", ram.Faults)
	}
}

// TestRAMWindowMatchesFlat drives a RAM and a flat reference memory with
// the same random stores, byte writes and bus writes, and compares every
// load and the snapshot bytes (which are Buffer's, every byte of the
// memory). Zero stores outside the window allocate nothing.
func TestRAMWindowMatchesFlat(t *testing.T) {
	const size = 3<<12 + 100
	rng := rand.New(rand.NewSource(1))
	ram, flat := NewRAM(size), make([]byte, size)
	ram.Store(size-8, make([]byte, 8))
	if ram.win != nil {
		t.Fatalf("zero store allocated a %d-byte window", len(ram.win))
	}
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(64)
		off := rng.Intn(size - n + 1)
		src := make([]byte, n)
		if rng.Intn(4) > 0 {
			rng.Read(src)
		}
		switch rng.Intn(3) {
		case 0:
			ram.Store(off, src)
			copy(flat[off:], src)
		case 1:
			ram.Set(off, src[0])
			flat[off] = src[0]
		default:
			ram.BusWrite(uint32(off), 8, uint32(src[0]))
			flat[off] = src[0]
		}
		got := make([]byte, n)
		if ram.Load(off, got); !bytes.Equal(got, flat[off:off+n]) || ram.At(off) != flat[off] {
			t.Fatalf("step %d: load at %#x = %x, want %x", i, off, got, flat[off:off+n])
		}
	}
	all := make([]byte, size)
	if ram.Load(0, all); !bytes.Equal(all, flat) {
		t.Fatal("contents differ from the flat reference")
	}
	blob, err := ram.MarshalState(nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := snap.NewEncoder(nil, "ram")
	enc.Buffer(flat)
	enc.U64(&ram.Faults)
	if want, _ := enc.Finish(); !bytes.Equal(blob, want) {
		t.Fatal("snapshot is not the flat memory's Buffer encoding")
	}
	back := NewRAM(size)
	if err := back.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if back.Load(0, all); !bytes.Equal(all, flat) {
		t.Fatal("restored contents differ from the flat reference")
	}
}

// TestRAMLoadStoreBounds: Load, Store, At and Set reject ranges outside
// the memory, like slice expressions.
func TestRAMLoadStoreBounds(t *testing.T) {
	ram := NewRAM(16)
	for name, f := range map[string]func(){
		"load past end":     func() { ram.Load(12, make([]byte, 5)) },
		"store past end":    func() { ram.Store(16, []byte{1}) },
		"store negative":    func() { ram.Store(-1, []byte{1}) },
		"at end":            func() { ram.At(16) },
		"set past end":      func() { ram.Set(17, 1) },
		"zero store at end": func() { ram.Store(15, make([]byte, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
