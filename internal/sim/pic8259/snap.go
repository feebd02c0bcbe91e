package pic8259

import "repro/internal/snap"

// snapName identifies this simulator's blobs (distinct from the "pic8259"
// driver-state blobs the Devil stub produces).
const snapName = "pic8259-sim"

// snapState walks the snapshot fields in wire order. The
// initialization-automaton position is part of the state: a snapshot
// taken mid-ICW-sequence restores still expecting the announced command
// words.
func (s *Sim) snapState(c *snap.Codec) {
	snap.Byte(c, &s.state)
	c.U8(&s.icw1)
	c.U8(&s.icw2)
	c.U8(&s.icw3)
	c.U8(&s.icw4)
	c.U8(&s.irr)
	c.U8(&s.isr)
	c.U8(&s.imr)
	c.U8(&s.readSel)
	c.U8(&s.lowest)
}

// MarshalState implements snap.Snapshotter.
func (s *Sim) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, snapName)
	s.snapState(&c)
	return c.Finish()
}

// UnmarshalState implements snap.Snapshotter.
func (s *Sim) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, snapName)
	if err != nil {
		return err
	}
	s.snapState(&c)
	return c.Close()
}
