package permedia2

import (
	"testing"

	sim "repro/internal/sim/permedia2"
)

func rig(t *testing.T) (Ports, *sim.Sim) {
	t.Helper()
	r := NewRig()
	r.Space.StrictFaults = true
	return r.Ports(), r.Chip
}

func TestFillCorrectness(t *testing.T) {
	for _, bpp := range []int{8, 16, 24, 32} {
		for _, mk := range []func(Ports) Driver{
			func(p Ports) Driver { return NewHand(p) },
			func(p Ports) Driver { return NewDevil(p) },
		} {
			p, chip := rig(t)
			drv := mk(p)
			if err := drv.Init(bpp); err != nil {
				t.Fatal(err)
			}
			drv.FillRect(10, 20, 30, 40, 0x00c0ffee)
			mask := uint32(0xffffffff)
			if bpp < 32 {
				mask = 1<<uint(bpp) - 1
			}
			want := 0x00c0ffee & mask
			if got := chip.Pixel(10, 20); got != want {
				t.Errorf("%s %dbpp: pixel(10,20) = %#x, want %#x", drv.Name(), bpp, got, want)
			}
			if got := chip.Pixel(39, 59); got != want {
				t.Errorf("%s %dbpp: pixel(39,59) = %#x, want %#x", drv.Name(), bpp, got, want)
			}
			if got := chip.Pixel(40, 60); got == want && want != 0 {
				t.Errorf("%s %dbpp: pixel outside rect was painted", drv.Name(), bpp)
			}
		}
	}
}

func TestCopyCorrectness(t *testing.T) {
	for _, bpp := range []int{8, 16, 24, 32} {
		for _, mk := range []func(Ports) Driver{
			func(p Ports) Driver { return NewHand(p) },
			func(p Ports) Driver { return NewDevil(p) },
		} {
			p, chip := rig(t)
			drv := mk(p)
			if err := drv.Init(bpp); err != nil {
				t.Fatal(err)
			}
			drv.FillRect(0, 0, 16, 16, 0x35)
			drv.CopyRect(0, 0, 100, 200, 16, 16)
			mask := uint32(0xffffffff)
			if bpp < 32 {
				mask = 1<<uint(bpp) - 1
			}
			if got := chip.Pixel(100, 200); got != 0x35&mask {
				t.Errorf("%s %dbpp: copied pixel = %#x, want %#x", drv.Name(), bpp, got, 0x35&mask)
			}
			if got := chip.Pixel(115, 215); got != 0x35&mask {
				t.Errorf("%s %dbpp: copied far corner = %#x", drv.Name(), bpp, got)
			}
		}
	}
}

// TestFillOperationCounts pins the per-primitive write counts of Table 3:
// 15/17 writes at 8/16/32 bpp, 10/10 at 24 bpp (wait-loop reads excluded).
func TestFillOperationCounts(t *testing.T) {
	for _, tc := range []struct {
		bpp                 int
		wantHand, wantDevil uint64
	}{
		{8, 15, 17}, {16, 15, 17}, {32, 15, 17}, {24, 10, 10},
	} {
		for i, mk := range []func(Ports) Driver{
			func(p Ports) Driver { return NewHand(p) },
			func(p Ports) Driver { return NewDevil(p) },
		} {
			p, _ := rig(t)
			drv := mk(p)
			if err := drv.Init(tc.bpp); err != nil {
				t.Fatal(err)
			}
			p.Space.ResetStats()
			drv.FillRect(0, 0, 4, 4, 1)
			want := tc.wantHand
			if i == 1 {
				want = tc.wantDevil
			}
			if got := p.Space.Stats().Out; got != want {
				t.Errorf("%s fill %dbpp: %d writes, want %d", drv.Name(), tc.bpp, got, want)
			}
		}
	}
}

// TestCopyOperationCounts pins Table 4: 15/17 at 8/16 bpp, 9/9 at 24/32 bpp.
func TestCopyOperationCounts(t *testing.T) {
	for _, tc := range []struct {
		bpp                 int
		wantHand, wantDevil uint64
	}{
		{8, 15, 17}, {16, 15, 17}, {24, 9, 9}, {32, 9, 9},
	} {
		for i, mk := range []func(Ports) Driver{
			func(p Ports) Driver { return NewHand(p) },
			func(p Ports) Driver { return NewDevil(p) },
		} {
			p, _ := rig(t)
			drv := mk(p)
			if err := drv.Init(tc.bpp); err != nil {
				t.Fatal(err)
			}
			p.Space.ResetStats()
			drv.CopyRect(0, 0, 64, 64, 8, 8)
			want := tc.wantHand
			if i == 1 {
				want = tc.wantDevil
			}
			if got := p.Space.Stats().Out; got != want {
				t.Errorf("%s copy %dbpp: %d writes, want %d", drv.Name(), tc.bpp, got, want)
			}
		}
	}
}

// TestThroughputShape checks the Table 3 shape: the Devil driver loses a
// few percent on tiny rectangles and nothing on large ones.
func TestThroughputShape(t *testing.T) {
	rate := func(mk func(Ports) Driver, size int) float64 {
		p, _ := rig(t)
		drv := mk(p)
		if err := drv.Init(8); err != nil {
			t.Fatal(err)
		}
		start := p.Space.Clock().Now()
		const n = 200
		for i := 0; i < n; i++ {
			drv.FillRect(0, 0, size, size, uint32(i))
		}
		elapsed := p.Space.Clock().Now() - start
		return float64(n) / (float64(elapsed) / 1e9)
	}
	handSmall := rate(func(p Ports) Driver { return NewHand(p) }, 2)
	devilSmall := rate(func(p Ports) Driver { return NewDevil(p) }, 2)
	if r := devilSmall / handSmall; r < 0.88 || r > 1.0 {
		t.Errorf("2x2 ratio = %.3f, want ~0.92-0.97", r)
	}
	handBig := rate(func(p Ports) Driver { return NewHand(p) }, 100)
	devilBig := rate(func(p Ports) Driver { return NewDevil(p) }, 100)
	if r := devilBig / handBig; r < 0.99 || r > 1.01 {
		t.Errorf("100x100 ratio = %.3f, want ~1.00", r)
	}
}

func TestFIFOStallsAreBounded(t *testing.T) {
	// Back-to-back large fills must make progress (the FIFO stall path).
	p, chip := rig(t)
	drv := NewHand(p)
	if err := drv.Init(32); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		drv.FillRect(0, 0, 400, 400, uint32(i))
	}
	if chip.Fills != 50 {
		t.Errorf("fills = %d, want 50", chip.Fills)
	}
}
