// Package bus provides the simulated I/O fabric that Devil-generated stubs,
// hand-written drivers, and device simulators communicate through.
//
// A Space models a port-mapped or memory-mapped address space. Device
// simulators claim address ranges with handlers; drivers issue 8/16/32-bit
// reads and writes plus block transfers (the rep insw/outsw equivalents).
//
// The space keeps two kinds of books that the paper's evaluation relies on:
//
//   - operation counters, reproducing the "I/O Operations" columns of
//     Tables 2-4, and
//   - a virtual clock, charging each access a configurable transaction cost
//     plus per-operation CPU overhead. Block transfers pay the overhead
//     once, which is exactly why the paper's rep-based block stubs show no
//     penalty while per-word C loops lose ~10% (§4.3).
//
// The virtual clock is shared with the device simulators, which advance it
// for non-bus work (seeks, DMA engines, drawing commands).
//
// A third book is optional: attach an obs.Observer with Space.SetObserver
// and every event of the host behind that space's clock — accesses,
// faults, clock advances, interrupt lines and the device engines — is
// emitted as a typed, virtually timestamped obs.Event carrying the host's
// span attribution (see internal/obs). The observer and the span stack
// live on the host's Clock, so concurrent hosts never share them, and
// every producer emits through Clock.Emit. With no observer attached the
// only cost is a nil check per event.
//
// Each event's Cost is the virtual time charged for it, and nothing else
// advances the clock, so the Costs of an observed host's events sum to
// its elapsed virtual time.
//
// # Single-owner machines
//
// A machine — its Clock, its Spaces, its RAM, its device simulators and
// its span stack — is used by one goroutine at a time. None of them takes
// a lock: an access runs start to finish on the owning goroutine, and a
// handler may re-enter the space (an interrupt handler doing I/O) without
// deadlocking. Hand a machine to another goroutine only through a
// synchronizing operation (a go statement, a channel send, a WaitGroup),
// as internal/farm does with each host. IRQLine is the one cross-goroutine entry point:
// Raise, Pending, Consume and Total are safe for concurrent use.
package bus

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
)

// Bus is the access interface drivers and generated stubs program against.
type Bus interface {
	In8(port uint32) uint8
	Out8(port uint32, v uint8)
	In16(port uint32) uint16
	Out16(port uint32, v uint16)
	In32(port uint32) uint32
	Out32(port uint32, v uint32)

	// Block transfers move len(buf) units to/from one port in a single
	// operation, like the x86 rep ins/outs instructions.
	InBlock16(port uint32, buf []uint16)
	OutBlock16(port uint32, buf []uint16)
	InBlock32(port uint32, buf []uint32)
	OutBlock32(port uint32, buf []uint32)
}

// Handler is implemented by device simulators. Offsets are relative to the
// mapped base; width is the access width in bits (8, 16 or 32).
type Handler interface {
	BusRead(offset uint32, width int) uint32
	BusWrite(offset uint32, width int, v uint32)
}

// Clock is a monotonically advancing virtual time source in nanoseconds.
// It is shared between spaces and device simulators, and like the rest of
// its machine it is used by one goroutine at a time (see the package doc).
//
// The clock doubles as the host identity: every producer of one simulated
// host (its spaces, IRQ lines, and device engines) shares one clock, so
// the clock carries the host's observer and obs.Spans stack, and every
// producer emits through Emit or Charge. That keeps observation
// structurally per-host — concurrent hosts never share span state, and
// observing one host costs the others nothing.
type Clock struct {
	ns    uint64
	obs   obs.Observer
	spans obs.Spans
}

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() uint64 { return c.ns }

// Spans returns the host attribution stack anchored on this clock. A nil
// clock returns a nil (permanently disabled) stack.
func (c *Clock) Spans() *obs.Spans {
	if c == nil {
		return nil
	}
	return &c.spans
}

// Emit sends e to the host's observer, stamped with the current virtual
// time and span attribution. Without an observer (or on a nil clock) it
// is a nil check.
func (c *Clock) Emit(e obs.Event) {
	if c != nil && c.obs != nil {
		c.emit(e)
	}
}

// emit is kept out of line so that Emit inlines to the nil check.
func (c *Clock) emit(e obs.Event) {
	e.TS, e.Span = c.ns, c.spans.Current()
	c.obs.Observe(e)
}

// Charge advances virtual time by e.Cost and emits e, so the time an
// engine spends and the event that accounts for it cannot drift apart.
func (c *Clock) Charge(e obs.Event) {
	c.ns += e.Cost
	c.Emit(e)
}

// Advance moves virtual time forward by d nanoseconds, emitted as a
// KindClockAdvance event: this is how simulator-side work (FIFO stalls,
// sample clocks, IRQ latency) shows up on the trace timeline.
func (c *Clock) Advance(d uint64) {
	c.Charge(obs.Event{Kind: obs.KindClockAdvance, Source: "clock", Cost: d})
}

// observe attaches o to the host (nil detaches). Attaching enables the
// host's span tracking and detaching disables it.
func (c *Clock) observe(o obs.Observer) {
	prev := c.obs
	c.obs = o
	if prev == nil && o != nil {
		c.spans.Enable()
	} else if prev != nil && o == nil {
		c.spans.Disable()
	}
}

// Costs parameterizes the virtual time charged per access.
//
// The defaults (DefaultPortCosts) model a classic ISA/PCI port: ~490ns per
// bus transaction regardless of width, plus ~55ns CPU overhead per
// instruction issued. Memory-mapped spaces (DefaultMemCosts) are an order
// of magnitude cheaper.
type Costs struct {
	AccessNS   uint64 // bus transaction cost per unit transferred
	OverheadNS uint64 // CPU cost per operation issued (paid once per block)
}

// DefaultPortCosts approximates a PIIX4-era I/O port transaction.
func DefaultPortCosts() Costs { return Costs{AccessNS: 490, OverheadNS: 55} }

// DefaultMemCosts approximates a write-combined memory-mapped register.
func DefaultMemCosts() Costs { return Costs{AccessNS: 42, OverheadNS: 5} }

// Stats counts operations issued on a space since the last Reset.
type Stats struct {
	In, Out           uint64 // single-unit operations, any width
	BlockIn, BlockOut uint64 // block operations
	BlockUnits        uint64 // units moved by block operations
	Faults            uint64 // accesses outside any mapped range
}

// Ops returns the total number of I/O operations issued, counting each block
// transfer as one operation (the convention of the paper's tables is
// reproduced by the experiment harnesses, which combine these counters).
func (s Stats) Ops() uint64 { return s.In + s.Out + s.BlockIn + s.BlockOut }

// Space is a port- or memory-mapped address space with mapped device
// handlers, counters, and a virtual clock. Create one with NewSpace. A
// space belongs to one machine and is used by one goroutine at a time
// (see the package doc).
type Space struct {
	name  string
	clock *Clock
	costs Costs
	maps  []mapping
	stats Stats

	// StrictFaults makes accesses outside mapped ranges panic instead of
	// reading as all-ones. Tests enable it to catch address bugs.
	StrictFaults bool
}

type mapping struct {
	base, size uint32
	name       string
	h          Handler
}

// source is the event attribution of traffic to this mapping: the mapped
// region's name when it has one, else the space name.
func (m *mapping) source(space string) string {
	if m.name != "" {
		return m.name
	}
	return space
}

// NewSpace creates an address space using the given virtual clock and cost
// model. The name appears in fault diagnostics.
func NewSpace(name string, clock *Clock, costs Costs) *Space {
	return &Space{name: name, clock: clock, costs: costs}
}

// Clock returns the space's virtual clock.
func (s *Space) Clock() *Clock { return s.clock }

// Spans returns the host attribution stack this space stamps into its
// events — the one anchored on its clock. Generated stubs and the exec
// interpreter discover it through the obs.Spanner interface.
func (s *Space) Spans() *obs.Spans { return s.clock.Spans() }

// SetObserver attaches o to the whole host behind the space's clock:
// every access, block transfer and fault of the space, and every clock
// advance, IRQ-line and device-engine event of producers sharing the
// clock, is emitted as an obs.Event stamped with virtual time and the
// current span attribution. Pass nil to detach. Attaching enables the
// host's span tracking and detaching disables it; both are per-host
// state, so other hosts are unaffected. Attach before traffic.
func (s *Space) SetObserver(o obs.Observer) { s.clock.observe(o) }

// Map claims [base, base+size) for the handler. Overlapping claims are
// rejected so simulator wiring bugs surface immediately.
func (s *Space) Map(base, size uint32, h Handler) error {
	return s.MapNamed("", base, size, h)
}

// MapNamed is Map with an attribution name: events for traffic in this
// range carry Source=name (one trace track per chip). The empty name
// falls back to the space name. An empty range, or one reaching past the
// top of the 32-bit address space, is rejected.
func (s *Space) MapNamed(name string, base, size uint32, h Handler) error {
	end := uint64(base) + uint64(size)
	if size == 0 || end > 1<<32 {
		return fmt.Errorf("bus %s: range [%#x,%#x) is empty or beyond the 32-bit address space", s.name, base, end)
	}
	for _, m := range s.maps {
		if mend := uint64(m.base) + uint64(m.size); uint64(base) < mend && uint64(m.base) < end {
			return fmt.Errorf("bus %s: range [%#x,%#x) overlaps existing [%#x,%#x)",
				s.name, base, end, m.base, mend)
		}
	}
	s.maps = append(s.maps, mapping{base: base, size: size, name: name, h: h})
	return nil
}

// MustMap is Map that panics on error, for fixed wiring in mains and tests.
func (s *Space) MustMap(base, size uint32, h Handler) {
	if err := s.Map(base, size, h); err != nil {
		panic(err)
	}
}

// MustMapNamed is MapNamed that panics on error.
func (s *Space) MustMapNamed(name string, base, size uint32, h Handler) {
	if err := s.MapNamed(name, base, size, h); err != nil {
		panic(err)
	}
}

// Stats returns a snapshot of the operation counters.
func (s *Space) Stats() Stats { return s.stats }

// ResetStats zeroes the operation counters (the clock keeps running).
func (s *Space) ResetStats() { s.stats = Stats{} }

// lookup resolves a port to its mapping, or nil when no range claims it.
// MapNamed keeps every range non-empty and below 2^32, so the unsigned
// difference port-base is below size exactly when port is in the range.
func (s *Space) lookup(port uint32) *mapping {
	for i := range s.maps {
		if m := &s.maps[i]; port-m.base < m.size {
			return m
		}
	}
	return nil
}

// fault books an unmapped access: counted, emitted with the cost the
// access was charged, and — under StrictFaults — escalated to a panic.
func (s *Space) fault(port uint32, width int, dir string, cost uint64) {
	s.stats.Faults++
	s.clock.Emit(obs.Event{Kind: obs.KindFault, Source: s.name, Addr: port, Width: width, Detail: dir, Cost: cost})
	if s.StrictFaults {
		panic(fmt.Sprintf("bus %s: %s of unmapped port %#x", s.name, dir, port))
	}
}

// countSingle books one single-unit operation and returns its cost.
func (s *Space) countSingle(in bool) uint64 {
	if in {
		s.stats.In++
	} else {
		s.stats.Out++
	}
	return s.costs.AccessNS + s.costs.OverheadNS
}

// countBlock books one block operation of units units and returns its cost.
func (s *Space) countBlock(in bool, units int) uint64 {
	if in {
		s.stats.BlockIn++
	} else {
		s.stats.BlockOut++
	}
	s.stats.BlockUnits += uint64(units)
	return s.costs.OverheadNS + uint64(units)*s.costs.AccessNS
}

// Reads charge the clock before the handler runs (a device may read the
// time) and emit once the value is known; writes emit before the handler
// runs, so an IRQ raised inside it appears after its cause in the stream.

func (s *Space) read(port uint32, width int) uint32 {
	cost := s.countSingle(true)
	s.clock.ns += cost
	m := s.lookup(port)
	if m == nil {
		s.fault(port, width, "read", cost)
		return ^uint32(0) >> uint(32-width)
	}
	v := m.h.BusRead(port-m.base, width)
	s.clock.Emit(obs.Event{
		Kind: obs.KindPortRead, Source: m.source(s.name),
		Addr: port, Width: width, Value: uint64(v), Cost: cost,
	})
	return v
}

func (s *Space) write(port uint32, width int, v uint32) {
	cost := s.countSingle(false)
	m := s.lookup(port)
	if m == nil {
		s.clock.ns += cost
		s.fault(port, width, "write", cost)
		return
	}
	s.clock.Charge(obs.Event{
		Kind: obs.KindPortWrite, Source: m.source(s.name),
		Addr: port, Width: width, Value: uint64(v), Cost: cost,
	})
	m.h.BusWrite(port-m.base, width, v)
}

// In8 implements Bus.
func (s *Space) In8(port uint32) uint8 { return uint8(s.read(port, 8)) }

// Out8 implements Bus.
func (s *Space) Out8(port uint32, v uint8) { s.write(port, 8, uint32(v)) }

// In16 implements Bus.
func (s *Space) In16(port uint32) uint16 { return uint16(s.read(port, 16)) }

// Out16 implements Bus.
func (s *Space) Out16(port uint32, v uint16) { s.write(port, 16, uint32(v)) }

// In32 implements Bus.
func (s *Space) In32(port uint32) uint32 { return s.read(port, 32) }

// Out32 implements Bus.
func (s *Space) Out32(port uint32, v uint32) { s.write(port, 32, v) }

// Block transfers resolve the mapping before charging: a faulting block
// moves no data, so it must not consume BlockUnits or virtual time (only
// the fault is booked). Single accesses keep charging on faults — the
// instruction issued and the bus transaction timed out.

// InBlock16 implements Bus.
func (s *Space) InBlock16(port uint32, buf []uint16) {
	m := s.lookup(port)
	if m == nil {
		s.fault(port, 16, "block read", 0)
		return
	}
	cost := s.countBlock(true, len(buf))
	s.clock.ns += cost
	off := port - m.base
	for i := range buf {
		buf[i] = uint16(m.h.BusRead(off, 16))
	}
	s.clock.Emit(obs.Event{Kind: obs.KindBlockIn, Source: m.source(s.name), Addr: port, Width: 16, Units: len(buf), Cost: cost})
}

// OutBlock16 implements Bus.
func (s *Space) OutBlock16(port uint32, buf []uint16) {
	m := s.lookup(port)
	if m == nil {
		s.fault(port, 16, "block write", 0)
		return
	}
	cost := s.countBlock(false, len(buf))
	s.clock.Charge(obs.Event{Kind: obs.KindBlockOut, Source: m.source(s.name), Addr: port, Width: 16, Units: len(buf), Cost: cost})
	off := port - m.base
	for _, v := range buf {
		m.h.BusWrite(off, 16, uint32(v))
	}
}

// InBlock32 implements Bus.
func (s *Space) InBlock32(port uint32, buf []uint32) {
	m := s.lookup(port)
	if m == nil {
		s.fault(port, 32, "block read", 0)
		return
	}
	cost := s.countBlock(true, len(buf))
	s.clock.ns += cost
	off := port - m.base
	for i := range buf {
		buf[i] = m.h.BusRead(off, 32)
	}
	s.clock.Emit(obs.Event{Kind: obs.KindBlockIn, Source: m.source(s.name), Addr: port, Width: 32, Units: len(buf), Cost: cost})
}

// OutBlock32 implements Bus.
func (s *Space) OutBlock32(port uint32, buf []uint32) {
	m := s.lookup(port)
	if m == nil {
		s.fault(port, 32, "block write", 0)
		return
	}
	cost := s.countBlock(false, len(buf))
	s.clock.Charge(obs.Event{Kind: obs.KindBlockOut, Source: m.source(s.name), Addr: port, Width: 32, Units: len(buf), Cost: cost})
	off := port - m.base
	for _, v := range buf {
		m.h.BusWrite(off, 32, v)
	}
}

// IRQLine is a latched interrupt line between a simulator and a driver:
// the simulator raises it (possibly from within a bus access), the driver
// consumes pending interrupts from its main loop. Modeling the handler at
// consume time (rather than running driver code inside the simulator call)
// matches how a kernel defers work from the hard-IRQ context.
//
// Raise and Consume emit KindIRQRaise/KindIRQConsume events named Name
// through Clock, the host's clock; a line without one emits nothing. Set
// both when wiring, before traffic; they are not synchronized by the
// line's mutex. The line is the one part of a machine that other
// goroutines may touch: Raise, Pending, Consume and Total are safe for
// concurrent use (see the package doc).
type IRQLine struct {
	mu      sync.Mutex
	pending uint64
	total   uint64

	Name  string // event Source and Detail
	Clock *Clock // the host clock events are emitted through
}

func (l *IRQLine) emit(kind obs.Kind) {
	l.Clock.Emit(obs.Event{Kind: kind, Source: l.Name, Detail: l.Name})
}

// Raise latches one interrupt.
func (l *IRQLine) Raise() {
	l.mu.Lock()
	l.pending++
	l.total++
	l.mu.Unlock()
	l.emit(obs.KindIRQRaise)
}

// Pending reports whether at least one interrupt is latched and not yet
// consumed. Device simulators use it as a pump barrier: streaming engines
// stop at a pending interrupt so the driver's ISR runs before more data
// moves.
func (l *IRQLine) Pending() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending > 0
}

// Consume takes one pending interrupt, reporting false if none is latched.
func (l *IRQLine) Consume() bool {
	l.mu.Lock()
	ok := l.pending > 0
	if ok {
		l.pending--
	}
	l.mu.Unlock()
	if ok {
		l.emit(obs.KindIRQConsume)
	}
	return ok
}

// Total returns the number of interrupts raised since creation.
func (l *IRQLine) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// ---------------------------------------------------------------------------
// Simple handlers for tests and simulators.

// RAM is a Handler backed by little-endian memory of a fixed size. It
// doubles as scratch register files in tests, and as the main memory that
// DMA engines and drivers move buffers through with Load and Store.
//
// Only a window of the memory is allocated: the span covering every store
// that held a non-zero byte. Everything outside it reads as zero. A
// machine's DMA buffer sits in a mostly unused address map (the IDE
// bounce buffer at 64 KiB, the sound ring at 16 KiB of 64 KiB), so a host
// allocates the bytes its transfers touch rather than the whole map.
//
// Bus accesses that reach past the end of the memory are faults, not
// silent truncations: a 16-bit read at Len()-1 used to return a
// half-composed value with no book-keeping at all, which is exactly the
// kind of bug a concurrent device farm turns from "weird number once" into
// corrupted aggregate statistics. Every out-of-range access increments
// Faults, and Strict escalates it to a panic (the RAM twin of
// Space.StrictFaults). Otherwise missing bytes read as zero and writes to
// them are dropped.
type RAM struct {
	size int
	lo   int    // offset of win[0]
	win  []byte // the allocated window, bytes [lo, lo+len(win))

	// Strict makes out-of-range accesses panic instead of partially
	// completing. Hosts and tests enable it to catch address bugs.
	Strict bool
	// Faults counts accesses (reads and writes) that touched at least one
	// byte outside the memory.
	Faults uint64
}

// NewRAM returns a zeroed RAM handler of the given size in bytes.
func NewRAM(size int) *RAM { return &RAM{size: size} }

// Len returns the size of the memory in bytes.
func (r *RAM) Len() int { return r.size }

// Load copies the len(dst) bytes at off into dst. Like a slice
// expression, it panics if the range is not inside the memory.
func (r *RAM) Load(off int, dst []byte) {
	r.check(off, len(dst))
	clear(dst)
	if a, b := max(off, r.lo), min(off+len(dst), r.lo+len(r.win)); a < b {
		copy(dst[a-off:], r.win[a-r.lo:b-r.lo])
	}
}

// Store copies src to off. Like a slice expression, it panics if the
// range is not inside the memory.
func (r *RAM) Store(off int, src []byte) {
	r.check(off, len(src))
	end := off + len(src)
	if off < r.lo || end > r.lo+len(r.win) {
		if !slices.ContainsFunc(src, func(b byte) bool { return b != 0 }) {
			// Zeros outside the window are already zero.
			if a, b := max(off, r.lo), min(end, r.lo+len(r.win)); a < b {
				clear(r.win[a-r.lo : b-r.lo])
			}
			return
		}
		r.grow(off, end)
	}
	copy(r.win[off-r.lo:], src)
}

// At returns the byte at off, panicking if off is outside the memory.
func (r *RAM) At(off int) byte {
	if k := off - r.lo; uint(k) < uint(len(r.win)) {
		return r.win[k]
	}
	r.check(off, 1)
	return 0
}

// Set stores b at off, panicking if off is outside the memory.
func (r *RAM) Set(off int, b byte) {
	if k := off - r.lo; uint(k) < uint(len(r.win)) {
		r.win[k] = b
		return
	}
	r.Store(off, []byte{b})
}

func (r *RAM) check(off, n int) {
	if off < 0 || n > r.size-off {
		panic(fmt.Sprintf("bus: RAM range [%#x,%#x) outside %d-byte memory", off, off+n, r.size))
	}
}

// grow extends the window to cover [off, end). A window that already
// holds bytes grows by at least its own length, so a run of adjacent
// stores costs amortized linear time.
func (r *RAM) grow(off, end int) {
	lo, hi := off, end
	if n := len(r.win); n > 0 {
		lo, hi = min(lo, r.lo), max(hi, r.lo+n)
		if lo < r.lo {
			lo = max(min(lo, r.lo-n), 0)
		}
		if hi > r.lo+n {
			hi = min(max(hi, r.lo+2*n), r.size)
		}
	}
	win := make([]byte, hi-lo)
	if len(r.win) > 0 {
		copy(win[r.lo-lo:], r.win)
	}
	r.lo, r.win = lo, win
}

// fault books one out-of-range access.
func (r *RAM) fault(offset uint32, width int, dir string) {
	r.Faults++
	if r.Strict {
		panic(fmt.Sprintf("bus: RAM %s%d at offset %#x overruns %d-byte backing", dir, width, offset, r.size))
	}
}

// BusRead implements Handler.
func (r *RAM) BusRead(offset uint32, width int) uint32 {
	if int(offset)+width/8 > r.size || int(offset) < 0 {
		r.fault(offset, width, "read")
	}
	var v uint32
	for i := 0; i < width/8; i++ {
		if idx := int(offset) + i; idx < r.size {
			v |= uint32(r.At(idx)) << uint(8*i)
		}
	}
	return v
}

// BusWrite implements Handler.
func (r *RAM) BusWrite(offset uint32, width int, v uint32) {
	if int(offset)+width/8 > r.size || int(offset) < 0 {
		r.fault(offset, width, "write")
	}
	for i := 0; i < width/8; i++ {
		if idx := int(offset) + i; idx < r.size {
			r.Set(idx, byte(v>>uint(8*i)))
		}
	}
}

// FuncHandler adapts read/write closures to the Handler interface.
type FuncHandler struct {
	Read  func(offset uint32, width int) uint32
	Write func(offset uint32, width int, v uint32)
}

// BusRead implements Handler.
func (f FuncHandler) BusRead(offset uint32, width int) uint32 {
	if f.Read == nil {
		return 0
	}
	return f.Read(offset, width)
}

// BusWrite implements Handler.
func (f FuncHandler) BusWrite(offset uint32, width int, v uint32) {
	if f.Write != nil {
		f.Write(offset, width, v)
	}
}
