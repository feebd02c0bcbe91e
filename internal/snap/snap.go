// Package snap defines the device-state snapshot wire format and the
// Snapshotter interface every stateful component of a simulated host
// implements: generated Devil stubs (devilc emits MarshalState and
// UnmarshalState from the specification), the exec interpreter (the same
// layout, walked dynamically from the sema-checked spec), the bus
// primitives (Clock, Space, IRQLine, RAM), and the register-accurate
// simulators. Snapshots compose: a whole host serializes as a sequence of
// part blobs, each self-delimiting, so containers concatenate parts and
// readers skip ones they do not understand.
//
// # Wire format
//
// Every blob starts with a versioned, length-prefixed header:
//
//	offset  size  field
//	0       4     magic "DVSN"
//	4       2     format version (little-endian; currently 1)
//	6       2     name length N (little-endian)
//	8       N     name (UTF-8, the producer's identity, e.g. "cs4236")
//	8+N     4     payload length P (little-endian)
//	12+N    P     payload
//
// All integers in the payload are little-endian and fixed-width; booleans
// are one byte (0 or 1). The payload layout is the producer's contract:
// for spec-derived device state it is the canonical order defined by
// ir.StateLayout, identical for the generated stubs and the interpreter,
// so cross-path snapshots compare byte for byte.
//
// # Declaring state
//
// Each component lists its snapshot fields once, in wire order, as a walk
// over a Codec (a method taking *Codec, conventionally named snapState).
// MarshalState runs the walk through NewEncoder and UnmarshalState runs
// the same walk through NewDecoder, so the two directions cannot drift
// apart. Generated stubs get their walk from devilc; the interpreter
// walks the same ir.StateLayout slots dynamically.
//
// Decoding never panics: the Codec latches the first error and turns
// every later field into a no-op, so truncated or corrupted input
// surfaces as an error from Close.
package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Snapshotter is implemented by every component that can serialize its
// state. MarshalState appends one self-delimiting blob (header included)
// to dst and returns the extended slice. UnmarshalState replaces the
// receiver's state from one blob; it must reject blobs whose header name
// or payload shape does not match and must never panic on corrupt input.
type Snapshotter interface {
	MarshalState(dst []byte) ([]byte, error)
	UnmarshalState(data []byte) error
}

// Version is the current wire-format version stamped into headers.
const Version = 1

// magic identifies a snapshot blob.
var magic = [4]byte{'D', 'V', 'S', 'N'}

// headerFixed is the byte size of the header around the variable-length
// name: magic + version + name length before it, payload length after.
const headerFixed = 4 + 2 + 2 + 4

// ErrTruncated reports input shorter than its declared structure.
var ErrTruncated = errors.New("snap: truncated input")

// Header is the decoded blob header.
type Header struct {
	Version uint16
	Name    string
	// PayloadLen is the declared payload length in bytes.
	PayloadLen uint32
}

// AppendHeader appends a blob header for name with a payload-length
// placeholder and returns the extended slice plus the opaque patch mark to
// pass to FinishHeader once the payload has been appended.
func AppendHeader(dst []byte, name string) ([]byte, int) {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	patch := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return dst, patch
}

// FinishHeader patches the payload length of the header started by
// AppendHeader, where everything appended after the mark is payload.
func FinishHeader(dst []byte, patch int) []byte {
	binary.LittleEndian.PutUint32(dst[patch:], uint32(len(dst)-patch-4))
	return dst
}

// ReadHeader decodes the header of the blob starting data, returning the
// header, its payload, and the remainder of data after the blob — the next
// part of a container. Corrupt or truncated input returns an error.
func ReadHeader(data []byte) (Header, []byte, []byte, error) {
	name, payload, rest, err := readHeader(data)
	if err != nil {
		return Header{}, nil, nil, err
	}
	return Header{Version: Version, Name: string(name), PayloadLen: uint32(len(payload))}, payload, rest, nil
}

// readHeader is ReadHeader with the name left as bytes, so a decoder that
// only compares it allocates nothing.
func readHeader(data []byte) (name, payload, rest []byte, err error) {
	if len(data) < headerFixed {
		return nil, nil, nil, ErrTruncated
	}
	if [4]byte(data[:4]) != magic {
		return nil, nil, nil, fmt.Errorf("snap: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, nil, nil, fmt.Errorf("snap: unsupported format version %d", v)
	}
	nameLen := int(binary.LittleEndian.Uint16(data[6:]))
	if len(data) < headerFixed+nameLen {
		return nil, nil, nil, ErrTruncated
	}
	name = data[8 : 8+nameLen]
	n := binary.LittleEndian.Uint32(data[8+nameLen:])
	body := data[headerFixed+nameLen:]
	if uint32(len(body)) < n {
		return nil, nil, nil, fmt.Errorf("snap: %s: %w (declared %d payload bytes, have %d)",
			name, ErrTruncated, n, len(body))
	}
	return name, body[:n], body[n:], nil
}

// Part splits the first blob off a container's payload, returning the
// whole blob (header included) and the remainder. Containers concatenate
// self-delimiting part blobs; consumers peel them off in order.
func Part(data []byte) (blob, rest []byte, err error) {
	if _, _, rest, err = ReadHeader(data); err != nil {
		return nil, nil, err
	}
	return data[:len(data)-len(rest)], rest, nil
}

// MarshalParts appends a container blob named name whose payload is the
// concatenation of the parts' blobs, in order.
func MarshalParts(dst []byte, name string, parts ...Snapshotter) ([]byte, error) {
	c := NewEncoder(dst, name)
	var err error
	for _, p := range parts {
		if c.buf, err = p.MarshalState(c.buf); err != nil {
			return nil, err
		}
	}
	return c.Finish()
}

// UnmarshalParts decodes a container blob named name whose payload is the
// concatenation of the parts' blobs, in the same order they were
// marshaled.
func UnmarshalParts(data []byte, name string, parts ...Snapshotter) error {
	c, err := NewDecoder(data, name)
	if err != nil {
		return err
	}
	for _, p := range parts {
		blob, rest, err := Part(c.buf[c.off:])
		if err != nil {
			return fmt.Errorf("snap: %s: %w", name, err)
		}
		if err := p.UnmarshalState(blob); err != nil {
			return err
		}
		c.off = len(c.buf) - len(rest)
	}
	return c.Close()
}

// Codec walks one component's state fields in wire order, in either
// direction. A component lists its fields once, in a method such as
//
//	func (s *Sim) snapState(c *snap.Codec) {
//		c.U8(&s.status)
//		c.U32(&s.addr)
//	}
//
// and MarshalState / UnmarshalState run that one walk through a Codec
// from NewEncoder or NewDecoder. Encoding appends each field; decoding
// reads each field back through the same pointer. Decoding is total: the
// first error (truncation, a bad boolean byte, a failed check) latches,
// every later field is left untouched, and Close reports it, so corrupt
// input never panics. Call the walk as a concrete method so the Codec
// stays on the caller's stack.
type Codec struct {
	name string
	buf  []byte // encoding: the blob so far; decoding: the payload
	off  int    // encoding: the header patch mark; decoding: the read cursor
	dec  bool
	err  error
}

// NewEncoder starts a blob named name appended to dst.
func NewEncoder(dst []byte, name string) Codec {
	dst, patch := AppendHeader(dst, name)
	return Codec{name: name, buf: dst, off: patch}
}

// NewDecoder checks the blob header against name and returns a Codec
// positioned at the start of the payload.
func NewDecoder(data []byte, name string) (Codec, error) {
	got, payload, _, err := readHeader(data)
	if err != nil {
		return Codec{}, err
	}
	if string(got) != name {
		return Codec{}, fmt.Errorf("snap: blob is %q, want %q", got, name)
	}
	return Codec{name: name, buf: payload, dec: true}, nil
}

// Finish completes an encoding walk, returning the extended slice.
func (c *Codec) Finish() ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	return FinishHeader(c.buf, c.off), nil
}

// Close completes a decoding walk: it returns the first error, or an
// error when payload bytes were left unconsumed (a payload-shape
// mismatch, e.g. a snapshot taken at a different optimization level or
// spec revision).
func (c *Codec) Close() error {
	if c.err == nil && c.off != len(c.buf) {
		return fmt.Errorf("snap: %s: %d trailing payload bytes (state shape mismatch)", c.name, len(c.buf)-c.off)
	}
	return c.err
}

// Failf latches a walk-level check failure, such as a decoded size that
// does not fit the receiver.
func (c *Codec) Failf(format string, args ...any) {
	c.fail(fmt.Errorf(format, args...))
}

func (c *Codec) fail(err error) {
	if c.err == nil {
		c.err = fmt.Errorf("snap: %s: %w", c.name, err)
	}
}

// take returns the next n payload bytes, or nil after latching an error.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if uint(n) > uint(len(c.buf)-c.off) {
		c.fail(fmt.Errorf("%w (%d bytes wanted, %d left)", ErrTruncated, uint(n), len(c.buf)-c.off))
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U8 walks one byte.
func (c *Codec) U8(p *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *p)
	} else if b := c.take(1); b != nil {
		*p = b[0]
	}
}

// U16 walks a little-endian uint16.
func (c *Codec) U16(p *uint16) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *p)
	} else if b := c.take(2); b != nil {
		*p = binary.LittleEndian.Uint16(b)
	}
}

// U32 walks a little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
	} else if b := c.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

// U64 walks a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
	} else if b := c.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// Int walks an int as a uint32.
func (c *Codec) Int(p *int) {
	v := uint32(*p)
	c.U32(&v)
	if c.dec && c.err == nil {
		*p = int(v)
	}
}

// Bool walks one byte, 1 for true; decoding rejects any byte but 0 or 1.
func (c *Codec) Bool(p *bool) {
	if !c.dec {
		v := uint8(0)
		if *p {
			v = 1
		}
		c.buf = append(c.buf, v)
		return
	}
	b := c.take(1)
	switch {
	case b == nil:
	case b[0] > 1:
		c.fail(fmt.Errorf("invalid boolean byte %#x", b[0]))
	default:
		*p = b[0] == 1
	}
}

// Byte walks an int8 or a small int-kinded enumeration as one byte.
func Byte[T ~int8 | ~int](c *Codec, p *T) {
	v := uint8(*p)
	c.U8(&v)
	if c.dec && c.err == nil {
		*p = T(v)
	}
}

// Array walks a fixed-size byte array with no length prefix.
func (c *Codec) Array(b []byte) {
	if !c.dec {
		c.buf = append(c.buf, b...)
	} else if src := c.take(len(b)); src != nil {
		copy(b, src)
	}
}

// Buffer walks a uint32 length prefix and the bytes of b, a buffer whose
// size the receiver fixed at construction (a media image, RAM); decoding
// rejects a blob of any other length.
func (c *Codec) Buffer(b []byte) {
	n := uint32(len(b))
	c.U32(&n)
	if n != uint32(len(b)) {
		c.Failf("blob holds a %d-byte buffer, receiver has %d", n, len(b))
		return
	}
	c.Array(b)
}

// Pages walks a buffer of size bytes held in pages of pageSize bytes (the
// last one shorter when pageSize does not divide size), where a nil page
// stands for zeros. Its wire form is exactly Buffer's: the length prefix
// and every byte, an absent page written as zeros. Decoding rejects a blob
// of any other length, leaves absent every page whose bytes are all zero
// and allocates only the others.
func (c *Codec) Pages(pages [][]byte, pageSize, size int) {
	n := uint32(size)
	c.U32(&n)
	if n != uint32(size) {
		c.Failf("blob holds a %d-byte buffer, receiver has %d", n, size)
		return
	}
	if !c.dec {
		for i, p := range pages {
			if p == nil {
				c.buf = append(c.buf, make([]byte, min(pageSize, size-i*pageSize))...)
			} else {
				c.buf = append(c.buf, p...)
			}
		}
		return
	}
	src := c.take(size)
	if c.err != nil {
		return
	}
	for i := range pages {
		b := src[:min(pageSize, len(src))]
		src = src[len(b):]
		switch {
		case isZero(b):
			pages[i] = nil
		case pages[i] == nil:
			pages[i] = append([]byte(nil), b...)
		default:
			copy(pages[i], b)
		}
	}
}

// Window walks a buffer of size bytes of which only the window
// [*lo, *lo+len(*win)) is held; every byte outside it is zero. Its wire
// form is exactly Buffer's: the length prefix and every byte. Decoding
// rejects a blob of any other length and sets the window to the span of
// whole zeroPage-sized chunks that holds the blob's non-zero bytes (empty
// when there are none).
func (c *Codec) Window(lo *int, win *[]byte, size int) {
	n := uint32(size)
	c.U32(&n)
	if n != uint32(size) {
		c.Failf("blob holds a %d-byte buffer, receiver has %d", n, size)
		return
	}
	if !c.dec {
		c.buf = append(c.buf, make([]byte, *lo)...)
		c.buf = append(c.buf, *win...)
		c.buf = append(c.buf, make([]byte, size-*lo-len(*win))...)
		return
	}
	src := c.take(size)
	if c.err != nil {
		return
	}
	const chunk = len(zeroPage)
	start, end := 0, size
	for start < end && isZero(src[start:min(start+chunk, end)]) {
		start += chunk
	}
	for end > start && isZero(src[max((end-1)/chunk*chunk, start):end]) {
		end = max((end-1)/chunk*chunk, start)
	}
	*lo, *win = 0, nil
	if start < end {
		*lo, *win = start, append([]byte(nil), src[start:end]...)
	}
}

// zeroPage is what isZero compares against, a chunk at a time.
var zeroPage [4 << 10]byte

func isZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroPage))
		if !bytes.Equal(b[:n], zeroPage[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// Bytes walks a uint32 length prefix and a variable-length byte slice;
// decoding stores a copy.
func (c *Codec) Bytes(p *[]byte) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*p)))
		c.buf = append(c.buf, *p...)
	} else if b := c.prefixed(); c.err == nil {
		*p = append([]byte{}, b...)
	}
}

// String walks a uint32 length prefix and a string.
func (c *Codec) String(p *string) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*p)))
		c.buf = append(c.buf, *p...)
	} else if b := c.prefixed(); c.err == nil {
		*p = string(b)
	}
}

// prefixed decodes a uint32 length prefix and that many payload bytes.
func (c *Codec) prefixed() []byte {
	var n uint32
	c.U32(&n)
	return c.take(int(n))
}
