package exec_test

import (
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/devil/exec"
	"repro/internal/obs"
	"repro/internal/sim/busmouse"
	"repro/internal/specs"
)

// newBusmouse links the library busmouse spec to a fresh simulator at port
// base 0x23c (the historical address) and returns both plus the space.
func newBusmouse(t *testing.T, opts exec.Options) (*exec.Device, *busmouse.Sim, *bus.Space) {
	t.Helper()
	spec := core.MustCompile(specs.Busmouse)
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	space.StrictFaults = true
	mouse := busmouse.New()
	space.MustMap(0x23c, 4, mouse)
	dev, err := core.Link(spec, space, map[string]uint32{"base": 0x23c}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dev, mouse, space
}

func TestMouseStateRead(t *testing.T) {
	dev, mouse, space := newBusmouse(t, exec.Options{Debug: true})
	mouse.Move(5, -3)
	mouse.SetButtons(0x6) // left pressed (bit 0 clear)

	if err := dev.ReadStruct("mouse_state"); err != nil {
		t.Fatal(err)
	}
	dx, err := dev.Get("dx")
	if err != nil {
		t.Fatal(err)
	}
	dy, err := dev.Get("dy")
	if err != nil {
		t.Fatal(err)
	}
	buttons, err := dev.Get("buttons")
	if err != nil {
		t.Fatal(err)
	}
	if dx != 5 || dy != -3 || buttons != 6 {
		t.Errorf("state = (%d,%d,%#x), want (5,-3,0x6)", dx, dy, buttons)
	}

	// The snapshot costs 4 index writes + 4 data reads.
	st := space.Stats()
	if st.Out != 4 || st.In != 4 {
		t.Errorf("ops = %d out, %d in; want 4+4", st.Out, st.In)
	}

	// Fields are served from the cache: another Get costs no I/O.
	if _, err := dev.Get("buttons"); err != nil {
		t.Fatal(err)
	}
	if st2 := space.Stats(); st2.Ops() != st.Ops() {
		t.Errorf("field get after snapshot performed I/O: %+v", st2)
	}
}

func TestMouseStateLatch(t *testing.T) {
	dev, mouse, _ := newBusmouse(t, exec.Options{})
	mouse.Move(10, 20)
	if err := dev.ReadStruct("mouse_state"); err != nil {
		t.Fatal(err)
	}
	// Movement arriving after the latch belongs to the next snapshot.
	mouse.Move(1, 1)
	dx, _ := dev.Get("dx")
	dy, _ := dev.Get("dy")
	if dx != 10 || dy != 20 {
		t.Errorf("latched state = (%d,%d), want (10,20)", dx, dy)
	}
	// Release the hold (interrupt ENABLE writes control with bit 7 clear),
	// then the next snapshot sees the new movement.
	if err := dev.SetSym("interrupt", "ENABLE"); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadStruct("mouse_state"); err != nil {
		t.Fatal(err)
	}
	dx, _ = dev.Get("dx")
	dy, _ = dev.Get("dy")
	if dx != 1 || dy != 1 {
		t.Errorf("next state = (%d,%d), want (1,1)", dx, dy)
	}
}

func TestFieldGetBeforeSnapshotFails(t *testing.T) {
	dev, _, _ := newBusmouse(t, exec.Options{Debug: true})
	if _, err := dev.Get("dx"); err == nil || !strings.Contains(err.Error(), "before mouse_state snapshot") {
		t.Errorf("err = %v, want structure-not-read", err)
	}
}

func TestConfigWriteAppliesForcedMaskBits(t *testing.T) {
	dev, mouse, _ := newBusmouse(t, exec.Options{Debug: true})
	if err := dev.SetSym("config", "CONFIGURATION"); err != nil {
		t.Fatal(err)
	}
	// cr mask '1001000.' forces bits 7..1 to 1001000; CONFIGURATION is '1'.
	if got := mouse.Config(); got != 0x91 {
		t.Errorf("config port = %#x, want 0x91", got)
	}
	if err := dev.SetSym("config", "DEFAULT_MODE"); err != nil {
		t.Fatal(err)
	}
	if got := mouse.Config(); got != 0x90 {
		t.Errorf("config port = %#x, want 0x90", got)
	}
}

func TestInterruptEnableDisable(t *testing.T) {
	dev, mouse, _ := newBusmouse(t, exec.Options{Debug: true})
	if err := dev.SetSym("interrupt", "DISABLE"); err != nil {
		t.Fatal(err)
	}
	if mouse.InterruptsEnabled() {
		t.Error("interrupts should be disabled")
	}
	if err := dev.SetSym("interrupt", "ENABLE"); err != nil {
		t.Fatal(err)
	}
	if !mouse.InterruptsEnabled() {
		t.Error("interrupts should be enabled")
	}
}

func TestSignatureRoundTrip(t *testing.T) {
	dev, _, _ := newBusmouse(t, exec.Options{Debug: true})
	if err := dev.Set("signature", 0xa5); err != nil {
		t.Fatal(err)
	}
	got, err := dev.Get("signature")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xa5 {
		t.Errorf("signature = %#x, want 0xa5", got)
	}
}

func TestDebugWriteChecks(t *testing.T) {
	dev, _, _ := newBusmouse(t, exec.Options{Debug: true})
	// config is a 1-bit enum: 3 is out of range.
	if err := dev.Set("config", 3); err == nil {
		t.Error("expected range error for config=3")
	}
	// signature is int(8): 300 is out of range.
	if err := dev.Set("signature", 300); err == nil {
		t.Error("expected range error for signature=300")
	}
	// buttons is read-only.
	if err := dev.Set("buttons", 1); err == nil {
		t.Error("expected not-writable error for buttons")
	}
	// config is write-only.
	if _, err := dev.Get("config"); err == nil {
		t.Error("expected not-readable error for config")
	}
}

func TestNonDebugTruncates(t *testing.T) {
	dev, mouse, _ := newBusmouse(t, exec.Options{})
	// Without debug checks the value is truncated to the variable width, as
	// compiled stubs would do.
	if err := dev.Set("config", 3); err != nil {
		t.Fatal(err)
	}
	if got := mouse.Config(); got != 0x91 {
		t.Errorf("config port = %#x, want 0x91 (truncated to 1 bit)", got)
	}
}

func TestPrivateVariablesAreHidden(t *testing.T) {
	dev, _, _ := newBusmouse(t, exec.Options{Debug: true})
	if _, err := dev.Get("index"); err == nil || !strings.Contains(err.Error(), "private") {
		t.Errorf("err = %v, want private", err)
	}
	if err := dev.Set("index", 1); err == nil || !strings.Contains(err.Error(), "private") {
		t.Errorf("err = %v, want private", err)
	}
}

func TestUnknownNames(t *testing.T) {
	dev, _, _ := newBusmouse(t, exec.Options{})
	if _, err := dev.Get("nonsense"); err == nil {
		t.Error("expected unknown-variable error")
	}
	if err := dev.ReadStruct("nonsense"); err == nil {
		t.Error("expected unknown-structure error")
	}
	if err := dev.SetSym("config", "NOSUCH"); err == nil {
		t.Error("expected unknown-symbol error")
	}
	if _, err := dev.GetSym("signature"); err == nil {
		t.Error("expected not-enumerated error")
	}
}

func TestInterfaceList(t *testing.T) {
	dev, _, _ := newBusmouse(t, exec.Options{})
	got := strings.Join(dev.Interface(), ",")
	want := "signature,config,interrupt,dx,dy,buttons"
	if got != want {
		t.Errorf("interface = %s, want %s", got, want)
	}
}

func TestLinkErrors(t *testing.T) {
	spec := core.MustCompile(specs.Busmouse)
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	if _, err := core.Link(spec, space, map[string]uint32{}, exec.Options{}); err == nil {
		t.Error("expected missing-base error")
	}
	if _, err := core.Link(spec, space, map[string]uint32{"base": 0, "bogus": 1}, exec.Options{}); err == nil {
		t.Error("expected unknown-port error")
	}
}

// ---------------------------------------------------------------------------
// Register serialization (8237A pattern): ordered reads through one port.

func TestSerializedCounterRead(t *testing.T) {
	src := `
device dma_fragment (data : bit[8] port, ff : bit[8] port)
{
    register flip_reg = write ff, mask '*******.' : bit[8];
    private variable flip_flop = flip_reg[0], write trigger : int(1);
    register cnt_low = data, pre {flip_flop = *} : bit[8];
    register cnt_high = data : bit[8];
    variable x = cnt_high # cnt_low : int(16)
        serialized as {cnt_low; cnt_high};
}
`
	spec, err := core.Compile([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())

	// The handler plays the 8237A: a write to the flip-flop port resets an
	// internal toggle; reads of the data port deliver low byte then high.
	var seq []string
	toggle := 0
	space.MustMap(0, 1, bus.FuncHandler{
		Read: func(off uint32, w int) uint32 {
			if toggle == 0 {
				toggle = 1
				seq = append(seq, "low")
				return 0x34
			}
			toggle = 0
			seq = append(seq, "high")
			return 0x12
		},
	})
	space.MustMap(1, 1, bus.FuncHandler{
		Write: func(off uint32, w int, v uint32) {
			toggle = 0
			seq = append(seq, "ff")
		},
	})

	dev, err := core.Link(spec, space, map[string]uint32{"data": 0, "ff": 1}, exec.Options{Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dev.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x1234 {
		t.Errorf("x = %#x, want 0x1234", got)
	}
	if s := strings.Join(seq, ","); s != "ff,low,high" {
		t.Errorf("sequence = %s, want ff,low,high", s)
	}
}

// ---------------------------------------------------------------------------
// Control-flow serialization (8259A pattern): guarded structure writes.

const picSrc = `
device pic_fragment (base : bit[8] port @ {0..1})
{
    register icw1 = write base @ 0, mask '...1....' : bit[8];
    register icw2 = write base @ 1, mask '.....000' : bit[8];
    register icw3 = write base @ 1 : bit[8];
    register icw4 = write base @ 1, mask '000.....' : bit[8];

    structure init = {
        variable lirq = icw1[7..5] : int(3);
        variable ltim = icw1[3] : bool;
        variable adi  = icw1[2] : bool;
        variable sngl = icw1[1] : { SINGLE => '1', CASCADED => '0' };
        variable ic4  = icw1[0] : bool;
        variable base_vec = icw2[7..3] : int(5);
        variable slaves = icw3 : int(8);
        variable sfnm = icw4[4] : bool;
        variable buf  = icw4[3..2] : int(2);
        variable aeoi = icw4[1] : bool;
        variable microprocessor = icw4[0] : { X8086 => '1', MCS80_85 => '0' };
    } serialized as {
        icw1;
        icw2;
        if (sngl == CASCADED) icw3;
        if (ic4 == true) icw4;
    };
}
`

func picWriteSeq(t *testing.T, sngl string, ic4 bool) []obs.Event {
	t.Helper()
	spec, err := core.Compile([]byte(picSrc))
	if err != nil {
		t.Fatal(err)
	}
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	space.MustMapNamed("pic", 0x20, 2, bus.NewRAM(2))
	ring := obs.NewRing(16)
	space.SetObserver(ring)
	dev, err := core.Link(spec, space, map[string]uint32{"base": 0x20}, exec.Options{Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name  string
		value int64
	}{
		{"lirq", 0}, {"ltim", 0}, {"adi", 0}, {"ic4", b2i(ic4)},
		{"base_vec", 4}, {"slaves", 0x04},
		{"sfnm", 0}, {"buf", 0}, {"aeoi", 1}, {"microprocessor", 1},
	} {
		if err := dev.Set(set.name, set.value); err != nil {
			t.Fatal(set.name, err)
		}
	}
	if err := dev.SetSym("sngl", sngl); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteStruct("init"); err != nil {
		t.Fatal(err)
	}
	return ring.Events()
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func TestPICInitCascadedWithICW4(t *testing.T) {
	ev := picWriteSeq(t, "CASCADED", true)
	if len(ev) != 4 {
		t.Fatalf("events = %v, want 4 writes", ev)
	}
	// icw1: bit4 forced 1, ic4 bit0 = 1 -> 0x11 at offset 0.
	if ev[0].Addr != 0x20 || ev[0].Value != 0x11 {
		t.Errorf("icw1 = %v, want out8[32]=0x11", ev[0])
	}
	// icw2: base_vec=4 in bits 7..3, low bits forced 0 -> 0x20 at offset 1.
	if ev[1].Addr != 0x21 || ev[1].Value != 0x20 {
		t.Errorf("icw2 = %v, want out8[33]=0x20", ev[1])
	}
	// icw3: slaves mask.
	if ev[2].Addr != 0x21 || ev[2].Value != 0x04 {
		t.Errorf("icw3 = %v, want out8[33]=0x4", ev[2])
	}
	// icw4: aeoi bit1 + x8086 bit0, top bits forced 0 -> 0x03.
	if ev[3].Addr != 0x21 || ev[3].Value != 0x03 {
		t.Errorf("icw4 = %v, want out8[33]=0x3", ev[3])
	}
}

func TestPICInitSingleWithoutICW4(t *testing.T) {
	ev := picWriteSeq(t, "SINGLE", false)
	if len(ev) != 2 {
		t.Fatalf("events = %v, want 2 writes (icw3 and icw4 skipped)", ev)
	}
	// icw1: bit4 forced, sngl bit1 = 1, ic4 = 0 -> 0x12.
	if ev[0].Value != 0x12 {
		t.Errorf("icw1 = %v, want 0x12", ev[0])
	}
	if ev[1].Addr != 0x21 || ev[1].Value != 0x20 {
		t.Errorf("icw2 = %v", ev[1])
	}
}

// ---------------------------------------------------------------------------
// Automata-based addressing (CS4236B pattern): recursive pre-actions through
// private cells, structure-literal contexts, parameterized families.

const csSrc = `
device cs_fragment (base : bit[8] port @ {0..1})
{
    private variable xm : bool;
    register control = base @ 0, set {xm = false} : bit[8];
    variable IA = control : int{0..31};

    register I (i : int{0..31}) = base @ 1, pre {IA = i} : bit[8];
    register I23 = I(23), mask '......0.';

    variable ACF = I23[0] : bool;
    structure XS = {
        variable XA = I23[2, 7..4] : int(5);
        variable XRAE = I23[3], set {xm = XRAE}, write trigger for true : bool;
    };

    register X (j : int{0..17, 25}) = base @ 1,
        pre {XS = {XA => j; XRAE => true}} : bit[8];
    variable ext (j : int{0..17, 25}) = X(j) : int(8);
}
`

func TestExtendedRegisterAutomaton(t *testing.T) {
	spec, err := core.Compile([]byte(csSrc))
	if err != nil {
		t.Fatal(err)
	}
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	space.MustMapNamed("cs", 0x530, 2, bus.NewRAM(2))
	var seq []string
	space.SetObserver(obs.Func(func(e obs.Event) {
		e.Addr -= 0x530 // offsets within the window
		seq = append(seq, e.String())
	}))
	dev, err := core.Link(spec, space, map[string]uint32{"base": 0x530}, exec.Options{Debug: true})
	if err != nil {
		t.Fatal(err)
	}

	if err := dev.SetParam("ext", 5, 0xAB); err != nil {
		t.Fatal(err)
	}

	// Expected automaton walk:
	//   1. write IA=23 to the control register (extended context: I23)
	//   2. write I23 with XA=5 (bits 2,7..4 -> 0x50) and XRAE=1 (bit 3)
	//   3. write the extended data register (base+1) with 0xAB
	want := "out8[0]=0x17,out8[1]=0x58,out8[1]=0xab"
	if got := strings.Join(seq, ","); got != want {
		t.Errorf("automaton trace = %s\nwant %s", got, want)
	}

	// The xm mode cell tracked the XRAE transition: control write set it
	// false, the XRAE=true flush set it true.
	if v, ok := dev.Peek("xm"); !ok || v != 1 {
		t.Errorf("xm = %v,%v; want 1", v, ok)
	}
}

func TestParameterizedDomainEnforced(t *testing.T) {
	spec, err := core.Compile([]byte(csSrc))
	if err != nil {
		t.Fatal(err)
	}
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	space.MustMap(0x530, 2, bus.NewRAM(2))
	dev, err := core.Link(spec, space, map[string]uint32{"base": 0x530}, exec.Options{Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetParam("ext", 20, 0); err == nil {
		t.Error("expected domain error for ext(20)")
	}
	if err := dev.Set("IA", 99); err == nil {
		t.Error("expected range error for IA=99")
	}
	if _, err := dev.Get("ext"); err == nil {
		t.Error("expected needs-argument error for ext without parameter")
	}
	if _, err := dev.GetParam("IA", 3); err == nil {
		t.Error("expected not-parameterized error for IA with argument")
	}
}

// TestReadCheckFollowsDebug: a value read from the device outside the
// variable's int set is reported in Debug mode, as a debug stub reports
// it, and returned as read otherwise.
func TestReadCheckFollowsDebug(t *testing.T) {
	spec, err := core.Compile([]byte(csSrc))
	if err != nil {
		t.Fatal(err)
	}
	for _, debug := range []bool{false, true} {
		var clk bus.Clock
		space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
		space.MustMap(0x530, 2, bus.NewRAM(2))
		space.Out8(0x530, 0x40) // IA is int{0..31}
		dev, err := core.Link(spec, space, map[string]uint32{"base": 0x530}, exec.Options{Debug: debug})
		if err != nil {
			t.Fatal(err)
		}
		got, err := dev.Get("IA")
		switch {
		case debug && (err == nil || err.Error() != "devil: IA: device delivered a value outside int{0..31}"):
			t.Errorf("Debug: err = %v, want the read-check fault", err)
		case !debug && (err != nil || got != 0x40):
			t.Errorf("no Debug: IA = %#x, %v; want 0x40", got, err)
		}
	}
}
