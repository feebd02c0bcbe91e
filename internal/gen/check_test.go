package gen_test

import (
	"fmt"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/devil/exec"
	"repro/internal/devil/sema"
	"repro/internal/gen"
	genbm "repro/internal/gen/busmouse"
	gencs "repro/internal/gen/cs4236"
	"repro/internal/specs"
)

// TestDebugChecksAgree: the §3.2 run-time checks are steps of the shared
// access plans, so a debug stub and exec in Debug mode reject the same
// access with the same fault text, one case per check kind. The exec side
// always runs. The stub side runs when the stubs were regenerated with
// "devilc -update -debug" (DEVIL_STUBS_DEBUG=1), because the checked-in
// stubs compile their checks away.
func TestDebugChecksAgree(t *testing.T) {
	mouse := core.MustCompile(specs.Busmouse)
	codec := core.MustCompile(specs.CS4236)
	cases := []struct {
		name string
		stub func()
		exec func() error
		want string
	}{
		{
			// config is a 1-bit enum: 3 has the bit pattern of a symbol in
			// its low bit, but is no 1-bit value.
			name: "write config=3",
			stub: func() { genbm.New(mouseSpace(), 0x23c).SetConfig(genbm.ConfigVal(3)) },
			exec: func() error { return link(t, mouse, mouseSpace(), 0x23c).Set("config", 3) },
			want: "devil: config: written value out of range for {CONFIGURATION, DEFAULT_MODE}",
		},
		{
			name: "ext(20) outside its domain",
			stub: func() { gencs.New(ramSpace(0), 0x530).Ext(20) },
			exec: func() error {
				_, err := link(t, codec, ramSpace(0), 0x530).GetParam("ext", 20)
				return err
			},
			want: "devil: ext: argument out of domain {0..17, 25}",
		},
		{
			name: "dx before the mouse_state snapshot",
			stub: func() { genbm.New(mouseSpace(), 0x23c).Dx() },
			exec: func() error {
				_, err := link(t, mouse, mouseSpace(), 0x23c).Get("dx")
				return err
			},
			want: "devil: dx read before mouse_state snapshot",
		},
		{
			// The device delivers 0x40 where IA is int{0..31}.
			name: "IA read outside its int set",
			stub: func() { gencs.New(ramSpace(0x40), 0x530).IA() },
			exec: func() error {
				_, err := link(t, codec, ramSpace(0x40), 0x530).Get("IA")
				return err
			},
			want: "devil: IA: device delivered a value outside int{0..31}",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.exec(); err == nil || err.Error() != c.want {
				t.Errorf("exec: err = %v, want %q", err, c.want)
			}
			if !stubsDebug() {
				return
			}
			if got := stubFault(c.stub); got != c.want {
				t.Errorf("debug stub: fault = %q, want %q", got, c.want)
			}
		})
	}
}

// link binds spec at base in Debug mode, at the level of the checked-in
// stubs.
func link(t *testing.T, spec *sema.Device, space *bus.Space, base uint32) *exec.Device {
	t.Helper()
	opts := execOpts()
	opts.Debug = true
	dev, err := core.Link(spec, space, map[string]uint32{"base": base}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// mouseSpace wires a fresh busmouse simulator at its canonical base.
func mouseSpace() *bus.Space {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	gen.Devices[0].NewSim(&clk, space)
	return space
}

// ramSpace maps two bytes of RAM at the cs4236 base, the first holding
// the value the control register delivers.
func ramSpace(control uint8) *bus.Space {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	space.MustMap(0x530, 2, bus.NewRAM(2))
	space.Out8(0x530, control)
	return space
}

// stubFault runs f and returns the text it panicked with, or "".
func stubFault(f func()) (fault string) {
	defer func() {
		if r := recover(); r != nil {
			fault = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
