package bus

import "repro/internal/snap"

// The bus primitives implement snap.Snapshotter for the host
// checkpoint/restore path (internal/farm): a suspended host serializes
// its clock, per-space operation counters, memory contents, and latched
// interrupts alongside the device simulators and driver stubs, and a
// freshly wired host restores them. Each primitive lists its fields once,
// in a snapState walk over a snap.Codec that both directions run. Space
// and IRQLine decode into a local copy and commit it only after a clean
// decode (the line under its lock), so a rejected blob leaves them
// untouched. Wiring (mappings, cost models, observers, span stacks) is
// reconstruction-time configuration and never travels in a blob.

// snapState walks the current virtual time.
func (c *Clock) snapState(sc *snap.Codec) { sc.U64(&c.ns) }

// MarshalState implements snap.Snapshotter.
func (c *Clock) MarshalState(dst []byte) ([]byte, error) {
	sc := snap.NewEncoder(dst, "clock")
	c.snapState(&sc)
	return sc.Finish()
}

// UnmarshalState implements snap.Snapshotter.
func (c *Clock) UnmarshalState(data []byte) error {
	sc, err := snap.NewDecoder(data, "clock")
	if err != nil {
		return err
	}
	c.snapState(&sc)
	return sc.Close()
}

// snapState walks the operation counters. The mappings, cost model, and
// observer are wiring.
func (st *Stats) snapState(c *snap.Codec) {
	c.U64(&st.In)
	c.U64(&st.Out)
	c.U64(&st.BlockIn)
	c.U64(&st.BlockOut)
	c.U64(&st.BlockUnits)
	c.U64(&st.Faults)
}

// MarshalState implements snap.Snapshotter.
func (s *Space) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "space")
	s.stats.snapState(&c)
	return c.Finish()
}

// UnmarshalState implements snap.Snapshotter.
func (s *Space) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "space")
	if err != nil {
		return err
	}
	var st Stats
	st.snapState(&c)
	if err := c.Close(); err != nil {
		return err
	}
	s.stats = st
	return nil
}

// irqState is the IRQLine's snapshot state: the latched and lifetime
// interrupt counts.
type irqState struct{ pending, total uint64 }

func (q *irqState) snapState(c *snap.Codec) {
	c.U64(&q.pending)
	c.U64(&q.total)
}

// MarshalState implements snap.Snapshotter.
func (l *IRQLine) MarshalState(dst []byte) ([]byte, error) {
	l.mu.Lock()
	q := irqState{l.pending, l.total}
	l.mu.Unlock()
	c := snap.NewEncoder(dst, "irq")
	q.snapState(&c)
	return c.Finish()
}

// UnmarshalState implements snap.Snapshotter.
func (l *IRQLine) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "irq")
	if err != nil {
		return err
	}
	var q irqState
	q.snapState(&c)
	if err := c.Close(); err != nil {
		return err
	}
	l.mu.Lock()
	l.pending, l.total = q.pending, q.total
	l.mu.Unlock()
	return nil
}

// snapState walks the memory contents, on the wire every byte of them,
// and the fault counter. The Strict flag is wiring; the receiver must have
// been allocated at the size the blob was taken at.
func (r *RAM) snapState(c *snap.Codec) {
	c.Window(&r.lo, &r.win, r.size)
	c.U64(&r.Faults)
}

// MarshalState implements snap.Snapshotter.
func (r *RAM) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "ram")
	r.snapState(&c)
	return c.Finish()
}

// UnmarshalState implements snap.Snapshotter.
func (r *RAM) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "ram")
	if err != nil {
		return err
	}
	r.snapState(&c)
	return c.Close()
}
