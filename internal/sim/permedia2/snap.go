package permedia2

import "repro/internal/snap"

// snapName identifies this simulator's blobs (distinct from the
// "permedia2" driver-state blobs the Devil stub produces).
const snapName = "permedia2-sim"

// maxBatches bounds the FIFO batch list a blob may declare, far above
// anything the FIFO-depth-limited engine can queue.
const maxBatches = 1 << 16

// snapState walks the snapshot fields in wire order. The framebuffer and
// the pending FIFO batches travel in the blob, so a snapshot taken while
// the engine is busy restores mid-drain. The receiver must have been
// constructed with the geometry the blob was taken at.
func (s *Sim) snapState(c *snap.Codec) {
	w, h := s.Width, s.Height
	c.Int(&w)
	c.Int(&h)
	if w != s.Width || h != s.Height {
		c.Failf("blob geometry %dx%d, controller is %dx%d", w, h, s.Width, s.Height)
		return
	}
	c.Pages(s.fb.p, pageSize, s.fb.size)
	for _, p := range []*uint32{
		&s.windowBase, &s.logicalOp, &s.writeConfig, &s.color,
		&s.startXDom, &s.startXSub, &s.startY, &s.dY, &s.count,
		&s.rectOrigin, &s.rectSize, &s.scissorMin, &s.scissorMax,
		&s.readMode, &s.sourceOff,
	} {
		c.U32(p)
	}
	c.U64(&s.busyUntil)
	c.Int(&s.openEntries)
	n := len(s.batches)
	c.Int(&n)
	if n > maxBatches {
		c.Failf("%d pending batches (corrupt blob)", n)
		return
	}
	if n != len(s.batches) {
		s.batches = make([]pendingBatch, n)
	}
	for i := range s.batches {
		c.U64(&s.batches[i].done)
		c.Int(&s.batches[i].entries)
	}
	c.U64(&s.Fills)
	c.U64(&s.Copies)
	c.U64(&s.Stalls)
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
