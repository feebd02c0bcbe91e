package exec

import "repro/internal/snap"

// The interpreter implements snap.Snapshotter by walking its state slots
// in the canonical ir.StateLayout order — the same slots, in the same
// order, that devilc compiles into each stub's MarshalState — so a
// snapshot taken through the interpreter is byte-identical to one taken
// through the generated stub after the same operation sequence, and
// either path restores the other's blobs.

// walk visits every slot of the layout in wire order.
func (d *Device) walk(u32 func(*uint32), flag func(*bool)) {
	l := d.prog.Layout
	for _, v := range l.Cells {
		u32(&d.st.cell[v.Index])
	}
	for _, v := range l.VCached {
		u32(&d.st.vc[v.Index])
	}
	for _, r := range l.Shadows {
		u32(&d.st.shadow[r.Index])
	}
	for _, r := range l.Guarded {
		flag(&d.st.ok[r.Index])
	}
	for _, r := range l.Snapped {
		u32(&d.st.snap[r.Index])
	}
	for _, s := range l.Readable {
		flag(&d.st.valid[s.Index])
	}
	for _, s := range l.Writable {
		for _, f := range s.Fields {
			u32(&d.st.fld[f.Index])
			if f.Trigger != nil {
				flag(&d.st.stg[f.Index])
			}
		}
	}
}

// MarshalState appends the device's spec-derived driver state as one snap
// blob in the canonical ir.StateLayout order.
func (d *Device) MarshalState(dst []byte) ([]byte, error) {
	dst, patch := snap.AppendHeader(dst, d.Spec.Name)
	d.walk(func(p *uint32) { dst = snap.AppendU32(dst, *p) },
		func(p *bool) { dst = snap.AppendBool(dst, *p) })
	return snap.FinishHeader(dst, patch), nil
}

// UnmarshalState restores the state appended by MarshalState (by this
// interpreter or by the generated stub of the same device at the same
// optimization level). On error the device state is unspecified; restore
// into a freshly linked device. The method never panics on corrupt input.
func (d *Device) UnmarshalState(data []byte) error {
	r, err := snap.NewReader(data, d.Spec.Name)
	if err != nil {
		return err
	}
	d.st = newState(d.Spec)
	d.walk(func(p *uint32) { *p = r.U32() }, func(p *bool) { *p = r.Bool() })
	return r.Close()
}
