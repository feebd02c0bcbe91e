package snap

import (
	"bytes"
	"testing"
)

// codecWalk holds one field of every Codec kind, walked in a fixed order.
type codecWalk struct {
	u8    uint8
	u16   uint16
	u32   uint32
	u64   uint64
	n     int
	b     bool
	i8    int8
	arr   [3]byte
	buf   []byte
	pages [][]byte
	lo    int
	win   []byte
	bytes []byte
	str   string
}

// Sizes of the walk's fixed-size buffers.
const (
	walkBuf      = 5
	walkPageSize = 4
	walkPaged    = 3*walkPageSize + 1
	walkWindow   = 6
)

func newCodecWalk() *codecWalk {
	return &codecWalk{buf: make([]byte, walkBuf), pages: make([][]byte, 4)}
}

func (w *codecWalk) snapState(c *Codec) {
	c.U8(&w.u8)
	c.U16(&w.u16)
	c.U32(&w.u32)
	c.U64(&w.u64)
	c.Int(&w.n)
	c.Bool(&w.b)
	Byte(c, &w.i8)
	c.Array(w.arr[:])
	c.Buffer(w.buf)
	c.Pages(w.pages, walkPageSize, walkPaged)
	c.Window(&w.lo, &w.win, walkWindow)
	c.Bytes(&w.bytes)
	c.String(&w.str)
}

func (w *codecWalk) marshal() ([]byte, error) {
	c := NewEncoder(nil, "walk")
	w.snapState(&c)
	return c.Finish()
}

// FuzzCodec decodes arbitrary bytes through a walk over every Codec kind,
// both as a whole blob and as the payload behind a valid header. Decoding
// must never panic, and input that decodes cleanly must re-encode to the
// same bytes.
func FuzzCodec(f *testing.F) {
	w := newCodecWalk()
	w.u8, w.u16, w.u32, w.u64, w.n, w.b, w.i8 = 1, 2, 3, 4, 5, true, -6
	w.arr = [3]byte{7, 8, 9}
	copy(w.buf, "abcde")
	w.pages[1] = []byte{1, 2, 3, 4}
	w.lo, w.win = 2, []byte{13, 14}
	w.bytes, w.str = []byte{10, 11}, "twelve"
	blob, err := w.marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		framed, patch := AppendHeader(nil, "walk")
		framed = FinishHeader(append(framed, data...), patch)
		for _, in := range [][]byte{data, framed} {
			w := newCodecWalk()
			c, err := NewDecoder(in, "walk")
			if err != nil {
				continue
			}
			w.snapState(&c)
			if c.Close() != nil {
				continue
			}
			out, err := w.marshal()
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			// A whole-blob input may run on past its blob; Part drops that.
			if blob, _, _ := Part(in); !bytes.Equal(out, blob) {
				t.Fatalf("decoded %x, re-encoded %x", blob, out)
			}
		}
	})
}
