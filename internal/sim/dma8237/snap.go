package dma8237

import "repro/internal/snap"

// snapName identifies this simulator's blobs (distinct from the "dma8237"
// driver-state blobs the Devil stub produces).
const snapName = "dma8237-sim"

// snapState walks the snapshot fields in wire order. The first/last flip-flop
// is part of the wire state: a snapshot taken between the two bytes of a
// 16-bit address write restores with the byte pairing intact.
func (s *Sim) snapState(c *snap.Codec) {
	c.Bool(&s.flipflop)
	c.U16(&s.baseAddr)
	c.U16(&s.curAddr)
	c.U16(&s.baseCount)
	c.U16(&s.curCount)
	c.U8(&s.status)
	c.U8(&s.mask)
	c.Array(s.mode[:])
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
