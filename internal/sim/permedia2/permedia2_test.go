package permedia2

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bus"
)

func newChip() (*Sim, *bus.Clock) {
	var clk bus.Clock
	return New(&clk, 64, 64), &clk
}

func write(s *Sim, off uint32, v uint32) { s.BusWrite(off, 32, v) }

// packDelta packs signed 16-bit x/y deltas the way the drivers do.
func packDelta(dx, dy int) uint32 {
	return uint32(uint16(int16(dx))) | uint32(uint16(int16(dy)))<<16
}

func fill(s *Sim, x, y, w, h int, color uint32) {
	write(s, RegFBWriteConfig, s.writeConfig) // keep depth
	write(s, RegConstantColor, color)
	write(s, RegRectOrigin, uint32(uint16(x))|uint32(uint16(y))<<16)
	write(s, RegRectSize, uint32(uint16(w))|uint32(uint16(h))<<16)
	write(s, RegRender, RenderFill)
}

func copyRect(s *Sim, x, y, w, h, dx, dy int) {
	write(s, RegFBSourceOff, packDelta(dx, dy))
	write(s, RegRectOrigin, uint32(uint16(x))|uint32(uint16(y))<<16)
	write(s, RegRectSize, uint32(uint16(w))|uint32(uint16(h))<<16)
	write(s, RegRender, RenderCopy)
}

// allocated counts the framebuffer pages present.
func allocated(s *Sim) int {
	n := 0
	for _, p := range s.fb.p {
		if p != nil {
			n++
		}
	}
	return n
}

func TestFillAndPixel(t *testing.T) {
	s, _ := newChip()
	write(s, RegFBWriteConfig, 1) // 16 bpp
	fill(s, 4, 4, 8, 8, 0xbeef)
	if got := s.Pixel(4, 4); got != 0xbeef {
		t.Errorf("pixel = %#x", got)
	}
	if got := s.Pixel(11, 11); got != 0xbeef {
		t.Errorf("corner = %#x", got)
	}
	if got := s.Pixel(12, 12); got == 0xbeef {
		t.Error("outside the rect painted")
	}
	if s.Fills != 1 {
		t.Errorf("fills = %d", s.Fills)
	}
}

func TestCopyWithNegativeDelta(t *testing.T) {
	s, _ := newChip()
	write(s, RegFBWriteConfig, 0) // 8 bpp
	fill(s, 0, 0, 4, 4, 0x77)
	// Copy (0,0)..(3,3) to (10,20): delta = src - dst = (-10, -20).
	write(s, RegFBSourceOff, packDelta(-10, -20))
	write(s, RegRectOrigin, 10|20<<16)
	write(s, RegRectSize, 4|4<<16)
	write(s, RegRender, RenderCopy)
	if got := s.Pixel(10, 20); got != 0x77 {
		t.Errorf("copied pixel = %#x", got)
	}
	if got := s.Pixel(13, 23); got != 0x77 {
		t.Errorf("copied corner = %#x", got)
	}
	if s.Copies != 1 {
		t.Errorf("copies = %d", s.Copies)
	}
}

func TestOverlappingCopyIsSafe(t *testing.T) {
	s, _ := newChip()
	write(s, RegFBWriteConfig, 0)
	fill(s, 0, 0, 2, 1, 0x11)
	fill(s, 2, 0, 2, 1, 0x22)
	// Shift the 4-pixel strip right by one: overlapping ranges.
	write(s, RegFBSourceOff, packDelta(-1, 0))
	write(s, RegRectOrigin, 1|0<<16)
	write(s, RegRectSize, 4|1<<16)
	write(s, RegRender, RenderCopy)
	if got := s.Pixel(1, 0); got != 0x11 {
		t.Errorf("pixel(1,0) = %#x, want 0x11", got)
	}
	if got := s.Pixel(4, 0); got != 0x22 {
		t.Errorf("pixel(4,0) = %#x, want 0x22", got)
	}
}

func TestFIFOTimingAndStalls(t *testing.T) {
	s, clk := newChip()
	write(s, RegFBWriteConfig, 2) // 32 bpp
	// Fire many large fills back to back without FIFO discipline: the
	// FIFO must stall the writer rather than lose commands.
	for i := 0; i < 20; i++ {
		fill(s, 0, 0, 64, 64, uint32(i))
	}
	if s.Fills != 20 {
		t.Errorf("fills = %d, want 20", s.Fills)
	}
	if s.Stalls == 0 {
		t.Error("expected FIFO stalls under backpressure")
	}
	// Drain: polling the FIFO advances virtual time until the engine has
	// finished everything; the total must cover the engine time of all
	// fills, and the FIFO must then read fully free.
	for s.BusRead(RegInFIFOSpace, 32) != FIFODepth {
		clk.Advance(50)
	}
	minBusy := uint64(20) * (setupNS + 64*64*4*fillByteNS)
	if clk.Now() < minBusy {
		t.Errorf("clock = %d, want >= %d", clk.Now(), minBusy)
	}
}

func TestBytesPerPixel(t *testing.T) {
	s, _ := newChip()
	for code, want := range map[uint32]int{0: 1, 1: 2, 3: 3, 2: 4} {
		write(s, RegFBWriteConfig, code)
		if got := s.BytesPerPixel(); got != want {
			t.Errorf("code %d: bpp = %d, want %d", code, got, want)
		}
	}
}

// TestHugeCopyIsClipped renders a 0xffff×0xffff copy, the largest the
// RectSize register encodes. The copy is clipped to the framebuffer before
// any work, so its temporary is at most one framebuffer row; a temporary
// sized by the register values would be about 17 GB.
func TestHugeCopyIsClipped(t *testing.T) {
	s, _ := newChip()
	write(s, RegFBWriteConfig, 2) // 32 bpp
	fill(s, 0, 0, 64, 64, 0x01020304)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	copyRect(s, -0x8000, -0x8000, 0xffff, 0xffff, 1, 1)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("copy allocated %d bytes, want < 64 KiB", got)
	}
	if got := s.Pixel(0, 0); got != 0x01020304 {
		t.Errorf("pixel(0,0) = %#x, want 0x01020304", got)
	}
	if got := s.Pixel(63, 63); got != 0 {
		t.Errorf("pixel(63,63) = %#x, want 0: its source is off the framebuffer", got)
	}
}

// flatFB is the reference framebuffer for TestPagedMatchesFlat: one flat
// byte slice drawn pixel by pixel, with no clipping shortcuts.
type flatFB struct {
	w, h int
	fb   []byte
}

func (f *flatFB) fill(x, y, w, h, bpp int, color uint32) {
	for yy := y; yy < y+h; yy++ {
		for xx := x; xx < x+w; xx++ {
			if xx < 0 || xx >= f.w || yy < 0 || yy >= f.h {
				continue
			}
			for i := 0; i < bpp; i++ {
				f.fb[(yy*f.w+xx)*bpp+i] = byte(color >> (8 * i))
			}
		}
	}
}

// copy reads the whole source block first, so overlap needs no ordering;
// a destination pixel whose source is off the framebuffer is cleared.
func (f *flatFB) copy(x, y, w, h, bpp, dx, dy int) {
	src := make([]byte, w*h*bpp)
	for yy := 0; yy < h; yy++ {
		for xx := 0; xx < w; xx++ {
			sx, sy := x+dx+xx, y+dy+yy
			if sx >= 0 && sx < f.w && sy >= 0 && sy < f.h {
				copy(src[(yy*w+xx)*bpp:(yy*w+xx+1)*bpp], f.fb[(sy*f.w+sx)*bpp:])
			}
		}
	}
	for yy := 0; yy < h; yy++ {
		for xx := 0; xx < w; xx++ {
			tx, ty := x+xx, y+yy
			if tx >= 0 && tx < f.w && ty >= 0 && ty < f.h {
				copy(f.fb[(ty*f.w+tx)*bpp:(ty*f.w+tx+1)*bpp], src[(yy*w+xx)*bpp:])
			}
		}
	}
}

// TestPagedMatchesFlat runs seeded random fills and copies on the paged
// framebuffer and on a flat reference, at every depth, and compares every
// framebuffer byte. The geometry spans several pages at every depth, with
// rows, and at 24 bpp pixels, straddling page boundaries. Rectangles reach
// past every edge, copies overlap their source in all four directions, and
// a quarter of the fills use colour 0, which must not allocate a page it
// lands on while that page is untouched.
func TestPagedMatchesFlat(t *testing.T) {
	const width, height = 512, 300
	for code, bpp := range map[uint32]int{0: 1, 1: 2, 3: 3, 2: 4} {
		for seed := int64(0); seed < 4; seed++ {
			var clk bus.Clock
			s := New(&clk, width, height)
			ref := &flatFB{w: width, h: height, fb: make([]byte, width*height*4)}
			write(s, RegFBWriteConfig, code)

			// Colour 0, and copies out of untouched areas, allocate nothing.
			fill(s, -10, -10, 200, 200, 0)
			copyRect(s, 100, 100, 300, 150, -50, 40)
			if n := allocated(s); n != 0 {
				t.Fatalf("bpp %d: zero writes to an untouched framebuffer allocated %d pages", bpp, n)
			}

			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 60; op++ {
				x, y := rng.Intn(width+80)-40, rng.Intn(height+80)-40
				w, h := rng.Intn(160), rng.Intn(120)
				if op%2 == 0 {
					color := rng.Uint32()
					if rng.Intn(4) == 0 {
						color = 0
					}
					fill(s, x, y, w, h, color)
					ref.fill(x, y, w, h, bpp, color)
					continue
				}
				// Small deltas overlap source and destination; the signs
				// cycle through the four directions.
				dx, dy := 1+rng.Intn(24), 1+rng.Intn(24)
				if op%4 == 1 {
					dx = -dx
				}
				if op%8 >= 4 {
					dy = -dy
				}
				if rng.Intn(8) == 0 {
					dx, dy = rng.Intn(2*width)-width, rng.Intn(2*height)-height
				}
				copyRect(s, x, y, w, h, dx, dy)
				ref.copy(x, y, w, h, bpp, dx, dy)
			}
			got := make([]byte, len(ref.fb))
			s.fb.read(got, 0)
			if !bytes.Equal(got, ref.fb) {
				i := 0
				for got[i] == ref.fb[i] {
					i++
				}
				t.Fatalf("bpp %d seed %d: framebuffer byte %d = %#x, flat model has %#x", bpp, seed, i, got[i], ref.fb[i])
			}
		}
	}
}
