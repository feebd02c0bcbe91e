package sound

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// traceGolden holds the SHA-256 of the full event stream of one driver
// initialising and playing two and a half ring revolutions, per variant
// and configuration. Any change to an op, its attribution or its virtual
// timing moves a hash; a refactor of the drivers must leave all of them.
var traceGolden = map[string]string{
	"standard/8000Hz 8-bit mono, 256B ring":      "3a9f3758ec3a7edfd93ce4a5de77430065ff121b140279b68c382b4a7a02ad16",
	"devil/8000Hz 8-bit mono, 256B ring":         "5b3fd24c9c3134f0635dd626a249ba372f9210f6c0b150a7ffdfe353e377f70a",
	"standard/22050Hz 8-bit mono, 1024B ring":    "b619bd03ea41be1f7a44273b61e74cee03b46c71659ab9e1d168d45ac4f6c89c",
	"devil/22050Hz 8-bit mono, 1024B ring":       "1a5b95b80663910477aefc2c706ee7d187a02889be95152c360a86945fdc9f05",
	"standard/22050Hz 8-bit stereo, 1024B ring":  "ca9d5e34e109ffbc97e0d8f7b4647e604f34ef68a2360e7babc6409900845da7",
	"devil/22050Hz 8-bit stereo, 1024B ring":     "f57fcd42eb3f2b0cdb36f22715350bc115d34c01718bf67b48446bc1a58261a9",
	"standard/44100Hz 16-bit mono, 2048B ring":   "d96ecc86e7b79633f4768b2b549eb8827d60713a7748fdf21d115f73f64212a3",
	"devil/44100Hz 16-bit mono, 2048B ring":      "913d4625abf1e884144654e4b1105d99daee25df42a21a017db70e3193c57561",
	"standard/48000Hz 16-bit stereo, 4096B ring": "811fc01eaaf4f24c59fed254f4bb7c0495a4abea17bf1f95c6d27355be1b7be4",
	"devil/48000Hz 16-bit stereo, 4096B ring":    "016a9b4dc5e3bfdece1bb36cf80ba297437a3d1e07b5084dfb4b2b38e39ea103",
	"standard/48000Hz 16-bit stereo, 16B ring":   "d4598c42a6bcce72940f322501462c8c40effd00c9eaa73b9c33f4eba10319eb",
	"devil/48000Hz 16-bit stereo, 16B ring":      "2d44f59eb65a71343e70faaf3260c3658a0a5f2c02e22c221b9f156dc228f5a0",
}

func TestTraceGolden(t *testing.T) {
	for _, cfg := range configs() {
		for i, name := range []string{"standard", "devil"} {
			key := name + "/" + cfg.String()
			t.Run(key, func(t *testing.T) {
				rig := NewRig()
				rig.Space.StrictFaults = true
				drv := drivers(rig.Ports(), cfg)[i]
				h := sha256.New()
				n := 0
				rig.Space.SetObserver(obs.Func(func(e obs.Event) {
					fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%d|%s|%d|%d\n",
						e.Kind, e.Source, e.Span, e.Addr, e.Width, e.Value, e.Units, e.Detail, e.TS, e.Cost)
					n++
				}))
				if err := drv.Init(); err != nil {
					t.Fatal(err)
				}
				if err := drv.Play(clip(cfg.RingBytes*2 + cfg.RingBytes/2)); err != nil {
					t.Fatal(err)
				}
				got := hex.EncodeToString(h.Sum(nil))
				if want := traceGolden[key]; got != want {
					t.Errorf("%d events; golden entry\n\t%q: %q,\nwant %q", n, key, got, want)
				}
			})
		}
	}
}
