package cs4236

import "repro/internal/snap"

// snapName identifies this simulator's blobs (distinct from the "cs4236"
// driver-state blobs the Devil stub produces).
const snapName = "cs4236-sim"

// snapState walks the snapshot fields in wire order. The playback record
// (FIFO contents, consumed samples, underrun latch) is state: a mid-clip
// snapshot restores with the DAC exactly where it was.
func (s *Sim) snapState(c *snap.Codec) {
	c.U8(&s.control)
	c.Array(s.indexed[:])
	c.Array(s.ext[:])
	c.U8(&s.xa)
	c.Bool(&s.xm)
	c.Bytes(&s.fifo)
	c.Bytes(&s.played)
	c.Bool(&s.underrun)
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
