package permedia2

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/bus"
	"repro/internal/snap"
)

// busyChip returns a 160×120 chip (one full framebuffer page and a short
// one at 32 bpp) with fills still queued in the engine, and its clock.
func busyChip(t testing.TB) (*Sim, *bus.Clock) {
	var clk bus.Clock
	s := New(&clk, 160, 120)
	write(s, RegFBWriteConfig, 2) // 32 bpp
	for i := 0; i < 6; i++ {
		fill(s, 20*i, 10*i, 100, 90, uint32(0x10101*(i+1)))
	}
	copyRect(s, 30, 20, 60, 40, 5, -7)
	if s.clock.Now() >= s.busyUntil || len(s.batches) == 0 {
		t.Fatal("engine already drained; the snapshot would not be mid-drain")
	}
	return s, &clk
}

func marshal(t testing.TB, s *Sim) []byte {
	t.Helper()
	blob, err := s.MarshalState(nil)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSnapshotMidDrain restores a snapshot taken while the engine still
// holds queued primitives into a fresh chip. The blob must round-trip
// byte for byte, and both chips must then drain in the same virtual time
// and end with the same framebuffer.
func TestSnapshotMidDrain(t *testing.T) {
	src, srcClk := busyChip(t)
	blob := marshal(t, src)

	var clk bus.Clock
	clk.Advance(srcClk.Now())
	dst := New(&clk, 160, 120)
	if err := dst.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if again := marshal(t, dst); !bytes.Equal(again, blob) {
		t.Fatal("snapshot did not round-trip through a fresh chip")
	}
	for _, c := range []struct {
		s   *Sim
		clk *bus.Clock
	}{{src, srcClk}, {dst, &clk}} {
		for c.s.BusRead(RegInFIFOSpace, 32) != FIFODepth {
			c.clk.Advance(50)
		}
	}
	if srcClk.Now() != clk.Now() {
		t.Errorf("drained at %d ns, original at %d ns", clk.Now(), srcClk.Now())
	}
	if a, b := marshal(t, src), marshal(t, dst); !bytes.Equal(a, b) {
		t.Error("restored chip drained to a different state")
	}
}

// TestSnapshotRejectsWrongGeometry restores a 160×120 blob into a chip of
// another size.
func TestSnapshotRejectsWrongGeometry(t *testing.T) {
	src, _ := busyChip(t)
	var clk bus.Clock
	if err := New(&clk, 120, 160).UnmarshalState(marshal(t, src)); err == nil {
		t.Fatal("restore accepted a blob taken at another geometry")
	}
}

// TestSnapshotRejectsWrongBufferLength restores a blob whose framebuffer
// length prefix disagrees with the geometry.
func TestSnapshotRejectsWrongBufferLength(t *testing.T) {
	src, _ := busyChip(t)
	blob := marshal(t, src)
	_, payload, _, err := snap.ReadHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(payload[8:], 160*120*4-1) // after width and height
	var clk bus.Clock
	if err := New(&clk, 160, 120).UnmarshalState(blob); err == nil {
		t.Fatal("restore accepted a framebuffer of the wrong length")
	}
}

// TestRestoreUntouchedAllocatesNoPages restores the snapshot of a chip
// that never drew: into a fresh chip it allocates nothing, and over a
// chip that drew it drops every page.
func TestRestoreUntouchedAllocatesNoPages(t *testing.T) {
	var clk bus.Clock
	blob := marshal(t, New(&clk, 160, 120))

	fresh := New(&clk, 160, 120)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := fresh.UnmarshalState(blob); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("restoring an untouched chip made %v allocations, want 0", allocs)
	}

	drawn, _ := busyChip(t)
	if err := drawn.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if n := allocated(drawn); n != 0 {
		t.Errorf("restoring an untouched chip left %d pages allocated", n)
	}
}

// FuzzUnmarshalState feeds arbitrary bytes to the simulator's decoder. It
// must return an error or decode a blob that re-marshals to exactly the
// bytes it read, and the restored engine must accept a render and a FIFO
// poll without panicking. The chip is small (a 2 KiB framebuffer) because
// the fuzzer mutates and minimizes whole blobs; the page walk across
// several pages is covered by TestPagedMatchesFlat and snap's own tests.
func FuzzUnmarshalState(f *testing.F) {
	var clk bus.Clock
	f.Add(marshal(f, New(&clk, 32, 16)))
	busy := New(&clk, 32, 16)
	fill(busy, 2, 3, 10, 10, 7)
	blob := marshal(f, busy)
	f.Add(blob)

	victim := New(&clk, 32, 16)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := victim.UnmarshalState(data); err != nil {
			return
		}
		in, _, err := snap.Part(data)
		if err != nil {
			t.Fatalf("decoded a blob snap.Part rejects: %v", err)
		}
		out, err := victim.MarshalState(nil)
		if err != nil {
			t.Fatalf("accepted a blob it cannot re-marshal: %v", err)
		}
		if !bytes.Equal(in, out) {
			t.Fatalf("re-marshaled blob differs from the one decoded:\nin  %x\nout %x", in, out)
		}
		victim.BusWrite(RegRender, 32, RenderCopy)
		victim.BusRead(RegInFIFOSpace, 32)
	})
}
