package busmouse_test

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/devil/exec"
	gen "repro/internal/gen/busmouse"
	"repro/internal/obs"
	sim "repro/internal/sim/busmouse"
	"repro/internal/specs"
)

func newDevice(t *testing.T) (*gen.Device, *sim.Sim, *bus.Space) {
	t.Helper()
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	space.StrictFaults = true
	mouse := sim.New()
	space.MustMap(0x23c, 4, mouse)
	return gen.New(space, 0x23c), mouse, space
}

func TestCompiledMouseState(t *testing.T) {
	dev, mouse, space := newDevice(t)
	mouse.Move(-7, 12)
	mouse.SetButtons(0x5)

	dev.ReadMouseState()
	if dx, dy, b := dev.Dx(), dev.Dy(), dev.Buttons(); dx != -7 || dy != 12 || b != 5 {
		t.Errorf("state = (%d,%d,%#x), want (-7,12,0x5)", dx, dy, b)
	}
	if st := space.Stats(); st.Out != 4 || st.In != 4 {
		t.Errorf("ops = %d out, %d in; want 4+4", st.Out, st.In)
	}
}

func TestCompiledConfigAndInterrupt(t *testing.T) {
	dev, mouse, _ := newDevice(t)
	dev.SetConfig(gen.ConfigCONFIGURATION)
	if got := mouse.Config(); got != 0x91 {
		t.Errorf("config = %#x, want 0x91", got)
	}
	dev.SetInterrupt(gen.InterruptDISABLE)
	if mouse.InterruptsEnabled() {
		t.Error("interrupts should be disabled")
	}
	dev.SetInterrupt(gen.InterruptENABLE)
	if !mouse.InterruptsEnabled() {
		t.Error("interrupts should be enabled")
	}
}

func TestCompiledSignature(t *testing.T) {
	dev, _, _ := newDevice(t)
	dev.SetSignature(0x5c)
	if got := dev.Signature(); got != 0x5c {
		t.Errorf("signature = %#x, want 0x5c", got)
	}
}

func TestEnumString(t *testing.T) {
	if got := gen.ConfigCONFIGURATION.String(); got != "CONFIGURATION" {
		t.Errorf("String = %q", got)
	}
	if got := gen.InterruptDISABLE.String(); got != "DISABLE" {
		t.Errorf("String = %q", got)
	}
}

// TestCompiledMatchesInterpreter drives the compiled stubs and the
// interpretive executor through the same scenario and asserts identical bus
// traces — the two back ends implement one semantics.
func TestCompiledMatchesInterpreter(t *testing.T) {
	traceOf := func(drive func(space *bus.Space)) []string {
		var clk bus.Clock
		space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
		space.MustMapNamed("busmouse", 0x23c, 4, sim.New())
		var out []string
		space.SetObserver(obs.Func(func(e obs.Event) { out = append(out, e.String()) }))
		drive(space)
		return out
	}

	genTrace := traceOf(func(space *bus.Space) {
		dev := gen.New(space, 0x23c)
		dev.SetConfig(gen.ConfigDEFAULTMODE)
		dev.SetSignature(0xa5)
		_ = dev.Signature()
		dev.ReadMouseState()
		dev.SetInterrupt(gen.InterruptENABLE)
	})

	execTrace := traceOf(func(space *bus.Space) {
		spec := core.MustCompile(specs.Busmouse)
		dev, err := core.Link(spec, space, map[string]uint32{"base": 0x23c}, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(dev.SetSym("config", "DEFAULT_MODE"))
		must(dev.Set("signature", 0xa5))
		_, err = dev.Get("signature")
		must(err)
		must(dev.ReadStruct("mouse_state"))
		must(dev.SetSym("interrupt", "ENABLE"))
	})

	if len(genTrace) != len(execTrace) {
		t.Fatalf("trace lengths differ: compiled %d vs interpreted %d\n%v\n%v",
			len(genTrace), len(execTrace), genTrace, execTrace)
	}
	for i := range genTrace {
		if genTrace[i] != execTrace[i] {
			t.Errorf("event %d: compiled %s vs interpreted %s", i, genTrace[i], execTrace[i])
		}
	}
}
