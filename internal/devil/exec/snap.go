package exec

import "repro/internal/snap"

// The interpreter implements snap.Snapshotter by walking its state slots
// in the canonical ir.StateLayout order — the same slots, in the same
// order, that devilc compiles into each stub's snapState walk — so a
// snapshot taken through the interpreter is byte-identical to one taken
// through the generated stub after the same operation sequence, and
// either path restores the other's blobs.

// snapState walks every slot of the layout in wire order.
func (d *Device) snapState(c *snap.Codec) {
	l := d.prog.Layout
	for _, v := range l.Cells {
		c.U32(&d.st.cell[v.Index])
	}
	for _, v := range l.VCached {
		c.U32(&d.st.vc[v.Index])
	}
	for _, r := range l.Shadows {
		c.U32(&d.st.shadow[r.Index])
	}
	for _, r := range l.Guarded {
		c.Bool(&d.st.ok[r.Index])
	}
	for _, r := range l.Snapped {
		c.U32(&d.st.snap[r.Index])
	}
	for _, s := range l.Readable {
		c.Bool(&d.st.valid[s.Index])
	}
	for _, s := range l.Writable {
		for _, f := range s.Fields {
			c.U32(&d.st.fld[f.Index])
			if f.Trigger != nil {
				c.Bool(&d.st.stg[f.Index])
			}
		}
	}
}

// MarshalState appends the device's spec-derived driver state as one snap
// blob in the canonical ir.StateLayout order.
func (d *Device) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, d.Spec.Name)
	d.snapState(&c)
	return c.Finish()
}

// UnmarshalState restores the state appended by MarshalState (by this
// interpreter or by the generated stub of the same device at the same
// optimization level). On error the device state is unspecified; restore
// into a freshly linked device. The method never panics on corrupt input.
func (d *Device) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, d.Spec.Name)
	if err != nil {
		return err
	}
	d.st = newState(d.Spec)
	d.snapState(&c)
	return c.Close()
}
