package snap

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPagesMatchesBuffer checks that Pages is Buffer on the wire: a paged
// buffer, absent pages included, encodes to the bytes Buffer writes for
// the same flat contents, and decoding those bytes leaves exactly the
// all-zero pages absent.
func TestPagesMatchesBuffer(t *testing.T) {
	const pageSize = 16
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, pageSize, 5*pageSize + 3} {
		flat := make([]byte, size)
		pages := make([][]byte, (size+pageSize-1)/pageSize)
		for i := range pages {
			chunk := flat[i*pageSize : min((i+1)*pageSize, size)]
			switch i % 3 {
			case 0: // absent
			case 1: // present but zero
				pages[i] = make([]byte, len(chunk))
			default:
				rng.Read(chunk)
				pages[i] = append([]byte(nil), chunk...)
			}
		}

		enc := NewEncoder(nil, "t")
		enc.Buffer(flat)
		want, _ := enc.Finish()
		enc = NewEncoder(nil, "t")
		enc.Pages(pages, pageSize, size)
		got, _ := enc.Finish()
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: Pages wrote %x, Buffer %x", size, got, want)
		}

		for _, into := range [][][]byte{make([][]byte, len(pages)), pages} {
			dec, err := NewDecoder(want, "t")
			if err != nil {
				t.Fatal(err)
			}
			dec.Pages(into, pageSize, size)
			if err := dec.Close(); err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
			for i, p := range into {
				chunk := flat[i*pageSize : min((i+1)*pageSize, size)]
				if zero := i%3 != 2; zero != (p == nil) || !zero && !bytes.Equal(p, chunk) {
					t.Errorf("size %d: decoded page %d = %x, want %x (absent when zero)", size, i, p, chunk)
				}
			}
		}

		dec, err := NewDecoder(want, "t")
		if err != nil {
			t.Fatal(err)
		}
		dec.Pages(make([][]byte, len(pages)+1), pageSize, size+pageSize)
		if dec.Close() == nil {
			t.Errorf("size %d: decoded into a buffer of another length", size)
		}
	}
}

// TestWindowMatchesBuffer checks that Window is Buffer on the wire, and
// that decoding holds exactly the zeroPage-sized chunks with a non-zero
// byte: the flat contents survive, and all-zero contents hold nothing.
func TestWindowMatchesBuffer(t *testing.T) {
	const chunk = len(zeroPage)
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ size, lo, n int }{
		{0, 0, 0},
		{10, 0, 0},
		{10, 3, 4},
		{3*chunk + 5, chunk + 7, 2},
		{3*chunk + 5, 0, 3*chunk + 5},
		{3*chunk + 5, 3 * chunk, 5},
		{4 * chunk, chunk, chunk},
	} {
		win := make([]byte, tc.n)
		rng.Read(win)
		flat := make([]byte, tc.size)
		copy(flat[tc.lo:], win)

		enc := NewEncoder(nil, "t")
		enc.Buffer(flat)
		want, _ := enc.Finish()
		enc = NewEncoder(nil, "t")
		enc.Window(&tc.lo, &win, tc.size)
		got, _ := enc.Finish()
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: Window wrote %x, Buffer %x", tc, got, want)
		}

		dec, err := NewDecoder(want, "t")
		if err != nil {
			t.Fatal(err)
		}
		lo, into := -1, []byte{1}
		dec.Window(&lo, &into, tc.size)
		if err := dec.Close(); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		wantLo, wantHi := 0, 0
		if tc.n > 0 {
			wantLo, wantHi = tc.lo/chunk*chunk, min((tc.lo+tc.n+chunk-1)/chunk*chunk, tc.size)
		}
		if lo != wantLo || len(into) != wantHi-wantLo || !bytes.Equal(into, flat[wantLo:wantHi]) {
			t.Errorf("%+v: decoded window [%d,+%d), want [%d,%d) of the flat contents", tc, lo, len(into), wantLo, wantHi)
		}

		dec, err = NewDecoder(want, "t")
		if err != nil {
			t.Fatal(err)
		}
		dec.Window(&lo, &into, tc.size+1)
		if dec.Close() == nil {
			t.Errorf("%+v: decoded into a buffer of another length", tc)
		}
	}
}
