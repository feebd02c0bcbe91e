package ide

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/obs"
	simide "repro/internal/sim/ide"
)

// traceGolden holds the SHA-256 of the full event stream of one driver
// initialising, reading 40 sectors and writing them back, per variant and
// configuration. Any change to an op, its attribution or its virtual
// timing moves a hash; a refactor of the drivers must leave all of them.
var traceGolden = map[string]string{
	"standard/DMA":                            "0467cf7f69a5f2dc4b6c15c2df2dbc081bbb12e4b65bfb609bbe2b225c860d66",
	"devil/DMA":                               "dd1ae9adccf0284384d1d4ac1285c61238ceae71f4a57b1b44c9bdac9c44f8f2",
	"standard/PIO 32-bit, 16 sect/irq, loop":  "0bb395623e79cfb02070f72a633deea9f3b32c799ba8d2e1ecd122790801de2a",
	"devil/PIO 32-bit, 16 sect/irq, loop":     "a52da37d86e37b93d8f53c4bddde240b1d95ba7160b6053dbddc8535f0bcb38c",
	"standard/PIO 32-bit, 16 sect/irq, block": "224e968984436c2d0b2c2c2ad8d43548af505805ffc48e3e48a00731fa2448ba",
	"devil/PIO 32-bit, 16 sect/irq, block":    "5d4c9ce74a139f55f990c787455158a7826898bb77e95ea24dbe253677f11293",
	"standard/PIO 16-bit, 16 sect/irq, loop":  "f6d33e4bece0534442989ea50df1617e9111858cd93b079fd7940f0734153810",
	"devil/PIO 16-bit, 16 sect/irq, loop":     "6ddb959a119f7ce36858541412f018d2a15fd460242400fcba167f7210eebd50",
	"standard/PIO 16-bit, 16 sect/irq, block": "1b74346cb287b0e7793203bd3131cc1eeef6217c42290c12c065f1f7c1209a2d",
	"devil/PIO 16-bit, 16 sect/irq, block":    "ad7ffd4e638b41ebdb8c5ec5c8b8dcddebdde6db7dac44b8df052310e95710df",
	"standard/PIO 32-bit, 8 sect/irq, loop":   "3fbc7746e22244425583b777655c0e27ed440f85e6201cdd4a1f9d5220376d18",
	"devil/PIO 32-bit, 8 sect/irq, loop":      "b9a90bc4361bbe442dccc5c9b0f67c4ce9ac4495089b7fbe1bcf9d824a8b428a",
	"standard/PIO 32-bit, 8 sect/irq, block":  "5b6673ec037cfee8b86cf5190f21432fbb4cacb249db2a7916d5020f715fa8b6",
	"devil/PIO 32-bit, 8 sect/irq, block":     "30260e34936d8c31e31abfc7a456559a88aaf2ca440b8e41694a7edbe80e2768",
	"standard/PIO 16-bit, 8 sect/irq, loop":   "1c2eae0eae35128f78221af68c49a091897c4e0529ab7b64c8456c2f7b449e56",
	"devil/PIO 16-bit, 8 sect/irq, loop":      "b990225da9afd37d81469b47b927850b5f5c2ca007b51bfd4bd1015b38cbc260",
	"standard/PIO 16-bit, 8 sect/irq, block":  "f18c27c66f22107555d438b1279bf73be0ef929ca8c721b88995725830287ce7",
	"devil/PIO 16-bit, 8 sect/irq, block":     "671227c0eb79b61d3b1ffe176585a12719ad233d26f9f8c386d420fe1c4678b3",
	"standard/PIO 32-bit, 1 sect/irq, loop":   "55f0bb0cbde0f27b19f43ddaa5f1f5be279dcf541401a9b5062eb4cc2c630af6",
	"devil/PIO 32-bit, 1 sect/irq, loop":      "65a56b0cb5bec3a79717dc99b027b8eac94691307da63b556148e07a749e254d",
	"standard/PIO 32-bit, 1 sect/irq, block":  "b0aab50f0ceb6fca62491f93ddc4b6cff416395c61a78d3947196bc92c480f01",
	"devil/PIO 32-bit, 1 sect/irq, block":     "e7f8c7f7705853315009fb2750e64b7d4ce9461af505227252d9febc4bf700a7",
	"standard/PIO 16-bit, 1 sect/irq, loop":   "47cf3f2265bf0131e4ee41d4c19f8669d59cfd9429e5d3e35c6724c71e8a24ce",
	"devil/PIO 16-bit, 1 sect/irq, loop":      "0c3e48d46ad4a9811b42b4d8b705c32e8544f714fa69598f6736eb557ed7af95",
	"standard/PIO 16-bit, 1 sect/irq, block":  "af66eed20ee23efe5c099792e0148deeb1a713959b446577935218305b8a1d8c",
	"devil/PIO 16-bit, 1 sect/irq, block":     "0b4e48f829acea49859fab94ec404477e1649ae415bd3456e77e4f1358f4e32b",
}

func TestTraceGolden(t *testing.T) {
	for _, cfg := range allConfigs() {
		for i, name := range []string{"standard", "devil"} {
			key := name + "/" + cfg.String()
			t.Run(key, func(t *testing.T) {
				p, _ := rig(t, 1024)
				drv := drivers(p, cfg)[i]
				h := sha256.New()
				n := 0
				p.Space.SetObserver(obs.Func(func(e obs.Event) {
					fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%d|%s|%d|%d\n",
						e.Kind, e.Source, e.Span, e.Addr, e.Width, e.Value, e.Units, e.Detail, e.TS, e.Cost)
					n++
				}))
				if err := drv.Init(); err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, 40*simide.SectorSize)
				if err := drv.ReadSectors(37, buf); err != nil {
					t.Fatal(err)
				}
				for i := range buf {
					buf[i] ^= byte(i * 7)
				}
				if err := drv.WriteSectors(37, buf); err != nil {
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
