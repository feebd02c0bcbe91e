package ide

import (
	"encoding/binary"
	"testing"

	"repro/internal/snap"
)

// TestUnmarshalStateRejectsCursorsBeyondImage restores blobs whose PIO or
// DMA cursor points past the media image. Each must be refused: accepted,
// the next transfer indexes the image at the cursor and panics.
func TestUnmarshalStateRejectsCursorsBeyondImage(t *testing.T) {
	const sectors = 64
	cases := []struct {
		name    string
		command uint32
		// field is the cursor's payload offset: from the end of the
		// payload when negative, else from the end of the media image.
		field   int
		trigger func(d *Disk)
	}{
		{"dma-lba", CmdReadDMA, -16, func(d *Disk) {
			d.Busmaster().BusWrite(BMCommand, 8, BMReadDir|BMStart)
		}},
		{"pio-lba", CmdReadSectors, 16, func(d *Disk) {
			for i := 0; i < SectorSize/2; i++ {
				d.TaskFile().BusRead(RegData, 16)
			}
		}},
		{"pio-pos", CmdReadSectors, -28, func(d *Disk) {
			d.TaskFile().BusRead(RegData, 16)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, _ := newDisk(sectors)
			tf := src.TaskFile()
			tf.BusWrite(RegNSect, 8, 2)
			tf.BusWrite(RegDevHead, 8, 0xe0)
			tf.BusWrite(RegStatus, 8, tc.command)
			blob, err := src.MarshalState(nil)
			if err != nil {
				t.Fatal(err)
			}
			_, payload, _, err := snap.ReadHeader(blob)
			if err != nil {
				t.Fatal(err)
			}
			off := len(payload) + tc.field
			if tc.field >= 0 {
				off = 4 + sectors*SectorSize + tc.field
			}
			binary.LittleEndian.PutUint32(payload[off:], 1<<20)

			d, _ := newDisk(sectors)
			if err := d.UnmarshalState(blob); err == nil {
				tc.trigger(d)
				t.Fatal("restore accepted a cursor beyond the media image")
			}
		})
	}
}
