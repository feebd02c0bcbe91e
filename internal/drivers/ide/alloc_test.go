//go:build !race

package ide

import (
	"testing"

	simide "repro/internal/sim/ide"
)

// TestPIONoAllocs pins the PIO path at zero allocations once a driver has
// moved its first block: the staging words are the driver's own and are
// reused by every later DRQ block. (AllocsPerRun makes the warm-up call;
// the race detector perturbs allocation counts, hence the build
// constraint.)
func TestPIONoAllocs(t *testing.T) {
	for _, cfg := range allConfigs() {
		if cfg.Mode != PIO {
			continue
		}
		p, _ := rig(t, 1024)
		for _, drv := range drivers(p, cfg) {
			if err := drv.Init(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 40*simide.SectorSize)
			for name, op := range map[string]func(int, []byte) error{
				"read": drv.ReadSectors, "write": drv.WriteSectors,
			} {
				allocs := testing.AllocsPerRun(10, func() {
					if err := op(37, buf); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s %s, %v: %v allocations per call, want 0", drv.Name(), name, cfg, allocs)
				}
			}
		}
	}
}
