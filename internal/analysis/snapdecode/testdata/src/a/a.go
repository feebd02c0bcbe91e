// Package a exercises the snapdecode analyzer: UnmarshalState bodies and
// snapshot walks that bypass the snap decoder.
package a

import (
	"encoding/binary"

	"repro/internal/snap"
)

type good struct {
	v   uint32
	raw []byte
}

// snapState is a clean walk: every field goes through the Codec.
func (g *good) snapState(c *snap.Codec) {
	c.U32(&g.v)
	c.Bytes(&g.raw)
}

func (g *good) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "good")
	g.snapState(&c)
	return c.Finish()
}

func (g *good) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "good")
	if err != nil {
		return err
	}
	g.snapState(&c)
	return c.Close()
}

type bad struct {
	v uint32
	b byte
}

func (b *bad) UnmarshalState(data []byte) error {
	b.v = binary.LittleEndian.Uint32(data) // want `decodes with encoding/binary`
	b.b = data[4]                          // want `indexes raw payload bytes`
	_ = data[5:]                           // want `re-slices raw payload bytes`
	return nil
}

// rawWalk decodes a length-prefixed payload and then picks its fields out
// by hand instead of walking them.
type rawWalk struct {
	payload []byte
	v       uint32
	b       byte
}

func (w *rawWalk) snapState(c *snap.Codec) {
	c.Bytes(&w.payload)
	w.b = w.payload[0]                          // want `snapshot walk snapState indexes raw payload bytes`
	w.v = binary.LittleEndian.Uint32(w.payload) // want `snapshot walk snapState decodes with encoding/binary`
}

// decode is neither an UnmarshalState body nor a snapshot walk: raw
// decoding elsewhere is the wire-format implementation's business, not
// this analyzer's.
func decode(data []byte) uint32 {
	return binary.LittleEndian.Uint32(data)
}
