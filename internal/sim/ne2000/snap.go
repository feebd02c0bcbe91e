package ne2000

import "repro/internal/snap"

// snapName identifies this simulator's blobs (distinct from the "ne2000"
// driver-state blobs the Devil stub produces).
const snapName = "ne2000-sim"

// snapState walks the snapshot fields in wire order. The on-board SRAM
// travels in the blob: a restored controller serves the same receive
// ring.
func (s *Sim) snapState(c *snap.Codec) {
	c.Buffer(s.sram[:])
	c.U8(&s.cmd)
	c.Bool(&s.running)
	for _, p := range []*uint8{
		&s.pstart, &s.pstop, &s.bnry, &s.curr, &s.tpsr, &s.tbcr0, &s.tbcr1,
		&s.rsar0, &s.rsar1, &s.rbcr0, &s.rbcr1, &s.isr, &s.imr, &s.dcr, &s.rcr, &s.tcr,
	} {
		c.U8(p)
	}
	c.Array(s.par[:])
	c.Array(s.mar[:])
	c.Int(&s.remoteAddr)
	c.Int(&s.remoteCount)
	c.Bool(&s.remoteWrite)
	c.U64(&s.TxFrames)
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
