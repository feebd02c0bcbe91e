package busmouse

import "repro/internal/snap"

// snapName identifies this simulator's blobs (distinct from the "busmouse"
// driver-state blobs the Devil stub produces).
const snapName = "busmouse-sim"

// snapState walks the snapshot fields in wire order.
func (s *Sim) snapState(c *snap.Codec) {
	snap.Byte(c, &s.accX)
	snap.Byte(c, &s.accY)
	c.U8(&s.buttons)
	c.Bool(&s.held)
	snap.Byte(c, &s.latX)
	snap.Byte(c, &s.latY)
	c.U8(&s.latButtons)
	c.U8(&s.index)
	c.Bool(&s.intrDisabled)
	c.U8(&s.signature)
	c.U8(&s.config)
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
