package gen_test

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/devil/exec"
	"repro/internal/devil/ir"
	genbm "repro/internal/gen/busmouse"
	gencs "repro/internal/gen/cs4236"
	gendma "repro/internal/gen/dma8237"
	genide "repro/internal/gen/ide"
	genne "repro/internal/gen/ne2000"
	genpm "repro/internal/gen/permedia2"
	genpic "repro/internal/gen/pic8259"
	genpiix4 "repro/internal/gen/piix4"
	"repro/internal/obs"
	simbm "repro/internal/sim/busmouse"
	simcs "repro/internal/sim/cs4236"
	simdma "repro/internal/sim/dma8237"
	simide "repro/internal/sim/ide"
	simne "repro/internal/sim/ne2000"
	simpm "repro/internal/sim/permedia2"
	simpic "repro/internal/sim/pic8259"
	"repro/internal/specs"
)

// The differential tests drive the interpretive executor (package exec) and
// the compiled stubs (internal/gen) through identical randomized operation
// sequences against identical simulators, then assert that both back ends
// produced the same bus trace (operation counts, addresses, and values),
// returned the same values from every read, and left the device in a
// bit-identical state. The two implementations share one specification;
// this is the executable statement that they share one semantics.

// execOpts returns the interpreter options matching the optimization level
// and debug setting the checked-in stubs were generated at. The default is
// -O1 without checks (what devilc -update writes); the CI -O0 leg
// regenerates the stubs with "devilc -update -O 0" and runs these tests
// with DEVIL_STUBS_OPT=0, and the debug leg regenerates them with
// "devilc -update -debug" and runs them with DEVIL_STUBS_DEBUG=1, so both
// back ends are compared with the optimizer off and with the §3.2 checks
// on too.
func execOpts() exec.Options {
	opts := exec.Options{Debug: stubsDebug()}
	if os.Getenv("DEVIL_STUBS_OPT") == "0" {
		opts.Opt = ir.O0
	}
	return opts
}

// stubsDebug reports whether the checked-in stubs were regenerated with
// their run-time checks on (DEVIL_STUBS_DEBUG=1).
func stubsDebug() bool { return os.Getenv("DEVIL_STUBS_DEBUG") == "1" }

// rig is one device-under-test instance: a bus whose named windows over a
// simulator report every port operation to one observer, plus the values
// every read returned.
type rig struct {
	space *bus.Space
	ops   []portOp
	outs  []int64
}

// portOp is the part of an observed bus event the differential tests
// compare: the window, the kind of access, its address and width, and the
// value (or the number of block units) it moved.
type portOp struct {
	Source string
	Kind   obs.Kind
	Addr   uint32
	Width  int
	Value  uint64
	Units  int
}

func (o portOp) String() string {
	e := obs.Event{Kind: o.Kind, Addr: o.Addr, Width: o.Width, Value: o.Value, Units: o.Units}
	return o.Source + ":" + e.String()
}

// newRig attaches the operation collector to space, whose windows the
// caller has mapped with MapNamed.
func newRig(space *bus.Space) *rig {
	r := &rig{space: space}
	space.SetObserver(obs.Func(func(e obs.Event) {
		if e.Kind.IsOp() {
			r.ops = append(r.ops, portOp{e.Source, e.Kind, e.Addr, e.Width, e.Value, e.Units})
		}
	}))
	return r
}

func (r *rig) record(v int64) { r.outs = append(r.outs, v) }

func compareRigs(t *testing.T, seed int64, genRig, execRig *rig) {
	t.Helper()
	if gs, es := genRig.space.Stats(), execRig.space.Stats(); gs != es {
		t.Fatalf("seed %d: bus op counts differ: compiled %+v vs interpreted %+v", seed, gs, es)
	}
	ge, ee := genRig.ops, execRig.ops
	if len(ge) != len(ee) {
		t.Fatalf("seed %d: trace lengths differ: compiled %d vs interpreted %d\n%v\n%v",
			seed, len(ge), len(ee), ge, ee)
	}
	for i := range ge {
		if ge[i] != ee[i] {
			t.Fatalf("seed %d: op %d differs: compiled %s vs interpreted %s", seed, i, ge[i], ee[i])
		}
	}
	if len(genRig.outs) != len(execRig.outs) {
		t.Fatalf("seed %d: read counts differ: compiled %d vs interpreted %d",
			seed, len(genRig.outs), len(execRig.outs))
	}
	for i := range genRig.outs {
		if genRig.outs[i] != execRig.outs[i] {
			t.Fatalf("seed %d: read %d differs: compiled %#x vs interpreted %#x",
				seed, i, genRig.outs[i], execRig.outs[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Busmouse

func newBusmouseRig() (*rig, *simbm.Sim) {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	mouse := simbm.New()
	space.MustMapNamed("busmouse", 0x23c, 4, mouse)
	return newRig(space), mouse
}

func TestDifferentialBusmouse(t *testing.T) {
	spec := core.MustCompile(specs.Busmouse)
	for seed := int64(0); seed < 32; seed++ {
		genRig, genMouse := newBusmouseRig()
		execRig, execMouse := newBusmouseRig()
		genDev := genbm.New(genRig.space, 0x23c)
		execDev, err := core.Link(spec, execRig.space, map[string]uint32{"base": 0x23c}, execOpts())
		if err != nil {
			t.Fatal(err)
		}
		get, set := execAccessors(t, seed, execDev)

		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 64; op++ {
			v := rng.Intn(256)
			switch rng.Intn(8) {
			case 0:
				genDev.SetSignature(uint8(v))
				set("signature", int64(v))
			case 1:
				genRig.record(int64(genDev.Signature()))
				execRig.record(get("signature"))
			case 2:
				genDev.SetConfig(genbm.ConfigVal(v & 1))
				set("config", int64(v&1))
			case 3:
				genDev.SetInterrupt(genbm.InterruptVal(v & 1))
				set("interrupt", int64(v&1))
			case 4:
				genDev.ReadMouseState()
				if err := execDev.ReadStruct("mouse_state"); err != nil {
					t.Fatalf("seed %d: ReadStruct: %v", seed, err)
				}
				genRig.record(int64(genDev.Dx()))
				genRig.record(int64(genDev.Dy()))
				genRig.record(int64(genDev.Buttons()))
				execRig.record(get("dx"))
				execRig.record(get("dy"))
				execRig.record(get("buttons"))
			case 5:
				dx, dy := rng.Intn(31)-15, rng.Intn(31)-15
				genMouse.Move(dx, dy)
				execMouse.Move(dx, dy)
			case 6:
				genMouse.SetButtons(uint8(v & 7))
				execMouse.SetButtons(uint8(v & 7))
			case 7:
				// Nothing: vary the spacing between device operations.
			}
		}
		compareRigs(t, seed, genRig, execRig)

		// Bit-identical device state, observed through the raw bus.
		for off := uint32(0); off < 2; off++ {
			g, e := genRig.space.In8(0x23c+off), execRig.space.In8(0x23c+off)
			if g != e {
				t.Fatalf("seed %d: final device state differs at +%d: %#x vs %#x", seed, off, g, e)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// IDE task file

func newIDERig() (*rig, *simide.Disk) {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	mem := bus.NewRAM(1 << 16)
	disk := simide.New(&clk, 64, mem)
	space.MustMapNamed("ide-cmd", 0x1f0, 8, disk.TaskFile())
	space.MustMapNamed("ide-ctl", 0x3f6, 1, disk.Control())
	return newRig(space), disk
}

func TestDifferentialIDE(t *testing.T) {
	spec := core.MustCompile(specs.IDE)
	for seed := int64(0); seed < 32; seed++ {
		genRig, _ := newIDERig()
		execRig, _ := newIDERig()
		genDev := genide.New(genRig.space, 0x1f0, 0x1f0, 0x1f0, 0x3f6)
		execDev, err := core.Link(spec, execRig.space, map[string]uint32{
			"data": 0x1f0, "data32": 0x1f0, "base": 0x1f0, "ctl": 0x3f6,
		}, execOpts())
		if err != nil {
			t.Fatal(err)
		}
		get, set := execAccessors(t, seed, execDev)

		rng := rand.New(rand.NewSource(seed ^ 0x1de))
		for op := 0; op < 96; op++ {
			v := rng.Intn(256)
			switch rng.Intn(14) {
			case 0:
				genDev.SetFeatures(uint8(v))
				set("features", int64(v))
			case 1:
				genDev.SetNsect(uint8(v))
				set("nsect", int64(v))
			case 2:
				genRig.record(int64(genDev.Nsect()))
				execRig.record(get("nsect"))
			case 3:
				genDev.SetLbaLow(uint8(v))
				set("lba_low", int64(v))
				genDev.SetLbaMid(uint8(v >> 1))
				set("lba_mid", int64(v>>1))
				genDev.SetLbaHigh(uint8(v >> 2))
				set("lba_high", int64(v>>2))
			case 4:
				genRig.record(int64(genDev.LbaLow()))
				execRig.record(get("lba_low"))
				genRig.record(int64(genDev.LbaMid()))
				execRig.record(get("lba_mid"))
				genRig.record(int64(genDev.LbaHigh()))
				execRig.record(get("lba_high"))
			case 5:
				genDev.SetLbaMode(genide.LbaModeVal(v & 1))
				set("lba_mode", int64(v&1))
			case 6:
				genDev.SetDrive(uint8(v & 1))
				set("drive", int64(v&1))
			case 7:
				genDev.SetHead(uint8(v & 0xf))
				set("head", int64(v&0xf))
			case 8:
				genRig.record(int64(genDev.Drive()))
				execRig.record(get("drive"))
				genRig.record(int64(genDev.Head()))
				execRig.record(get("head"))
			case 9:
				genDev.ReadIdeStatus()
				if err := execDev.ReadStruct("ide_status"); err != nil {
					t.Fatalf("seed %d: ReadStruct: %v", seed, err)
				}
				for _, f := range []struct {
					g bool
					n string
				}{
					{genDev.Bsy(), "bsy"}, {genDev.Drdy(), "drdy"},
					{genDev.Drq(), "drq"}, {genDev.Err(), "err"},
				} {
					genRig.record(b2i(f.g))
					execRig.record(get(f.n))
				}
			case 10:
				genRig.record(int64(genDev.Error()))
				execRig.record(get("error"))
			case 11:
				cmd := genide.CommandRECALIBRATE
				if v&1 == 1 {
					cmd = genide.CommandIDENTIFY
				}
				genDev.SetCommand(cmd)
				set("command", int64(cmd))
			case 12:
				genRig.record(int64(genDev.IdeData()))
				execRig.record(get("Ide_data"))
			case 13:
				genDev.SetSrst(v&1 == 1)
				set("srst", int64(v&1))
				genDev.SetNien(genide.NienVal(v >> 1 & 1))
				set("nien", int64(v>>1&1))
			}
		}
		compareRigs(t, seed, genRig, execRig)

		// Bit-identical task-file state, observed through the raw bus.
		for off := uint32(1); off < 8; off++ {
			g, e := genRig.space.In8(0x1f0+off), execRig.space.In8(0x1f0+off)
			if g != e {
				t.Fatalf("seed %d: final task file differs at +%d: %#x vs %#x", seed, off, g, e)
			}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// execAccessors returns fatal-on-error Get/Set closures over an exec
// device, the idiom every differential test shares.
func execAccessors(t *testing.T, seed int64, dev *exec.Device) (get func(string) int64, set func(string, int64)) {
	get = func(name string) int64 {
		v, err := dev.Get(name)
		if err != nil {
			t.Fatalf("seed %d: Get(%s): %v", seed, name, err)
		}
		return v
	}
	set = func(name string, v int64) {
		if err := dev.Set(name, v); err != nil {
			t.Fatalf("seed %d: Set(%s): %v", seed, name, err)
		}
	}
	return get, set
}

// ---------------------------------------------------------------------------
// PIIX4 busmaster function

func newPIIX4Rig() (*rig, *simide.Disk) {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	mem := bus.NewRAM(1 << 16)
	disk := simide.New(&clk, 64, mem)
	space.MustMapNamed("piix4", 0xc000, 8, disk.Busmaster())
	return newRig(space), disk
}

func TestDifferentialPIIX4(t *testing.T) {
	spec := core.MustCompile(specs.PIIX4)
	for seed := int64(0); seed < 32; seed++ {
		genRig, _ := newPIIX4Rig()
		execRig, _ := newPIIX4Rig()
		genDev := genpiix4.New(genRig.space, 0xc000, 0xc004)
		execDev, err := core.Link(spec, execRig.space, map[string]uint32{
			"bm": 0xc000, "prd": 0xc004,
		}, execOpts())
		if err != nil {
			t.Fatal(err)
		}
		get, set := execAccessors(t, seed, execDev)

		rng := rand.New(rand.NewSource(seed ^ 0x9114))
		for op := 0; op < 64; op++ {
			v := rng.Intn(1 << 16)
			switch rng.Intn(6) {
			case 0:
				genDev.SetBmDir(genpiix4.BmDirVal(v & 1))
				set("bm_dir", int64(v&1))
			case 1:
				genDev.SetBmStart(genpiix4.BmStartVal(v & 1))
				set("bm_start", int64(v&1))
			case 2:
				genDev.ReadBmStatus()
				if err := execDev.ReadStruct("bm_status"); err != nil {
					t.Fatalf("seed %d: ReadStruct: %v", seed, err)
				}
				genRig.record(b2i(genDev.BmIrq()))
				execRig.record(get("bm_irq"))
				genRig.record(b2i(genDev.BmErr()))
				execRig.record(get("bm_err"))
				genRig.record(b2i(genDev.BmActive()))
				execRig.record(get("bm_active"))
			case 3:
				genDev.SetBmAckIrq(true)
				set("bm_ack_irq", 1)
			case 4:
				genDev.SetBmAckErr(true)
				set("bm_ack_err", 1)
			case 5:
				genDev.SetPrdAddr(uint32(v))
				set("prd_addr", int64(v))
			}
		}
		compareRigs(t, seed, genRig, execRig)

		for off := uint32(0); off < 3; off++ {
			g, e := genRig.space.In8(0xc000+off), execRig.space.In8(0xc000+off)
			if g != e {
				t.Fatalf("seed %d: final busmaster state differs at +%d: %#x vs %#x", seed, off, g, e)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// NE2000 Ethernet controller

func newNE2000Rig() (*rig, *simne.Sim) {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	nic := simne.New()
	space.MustMapNamed("ne2000", 0x300, 0x20, nic)
	return newRig(space), nic
}

func TestDifferentialNE2000(t *testing.T) {
	spec := core.MustCompile(specs.NE2000)
	frame := make([]byte, 64)
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	for seed := int64(0); seed < 32; seed++ {
		genRig, genNIC := newNE2000Rig()
		execRig, execNIC := newNE2000Rig()
		genDev := genne.New(genRig.space, 0x300, 0x310, 0x31f)
		execDev, err := core.Link(spec, execRig.space, map[string]uint32{
			"base": 0x300, "dma": 0x310, "rst": 0x31f,
		}, execOpts())
		if err != nil {
			t.Fatal(err)
		}
		get, set := execAccessors(t, seed, execDev)

		rng := rand.New(rand.NewSource(seed ^ 0x2000))
		for op := 0; op < 96; op++ {
			v := rng.Intn(256)
			switch rng.Intn(14) {
			case 0:
				st := genne.StSTOP
				if v&1 == 1 {
					st = genne.StSTART
				}
				genDev.SetSt(st)
				set("st", int64(st))
			case 1:
				genDev.SetTxp(genne.TxpTRANSMIT)
				set("txp", int64(genne.TxpTRANSMIT))
			case 2:
				rd := []genne.RdVal{genne.RdNODMA, genne.RdRREAD, genne.RdRWRITE, genne.RdSEND}[v&3]
				genDev.SetRd(rd)
				set("rd", int64(rd))
			case 3:
				genDev.SetPstart(uint8(v))
				set("pstart", int64(v))
				genDev.SetPstop(uint8(v | 0x80))
				set("pstop", int64(v|0x80))
			case 4:
				genDev.SetBnry(uint8(v))
				set("bnry", int64(v))
				genRig.record(int64(genDev.Bnry()))
				execRig.record(get("bnry"))
			case 5:
				genDev.SetTpsr(uint8(v))
				set("tpsr", int64(v))
				genDev.SetTbcr0(uint8(v))
				set("tbcr0", int64(v))
				genDev.SetTbcr1(uint8(v & 1))
				set("tbcr1", int64(v&1))
			case 6:
				genDev.ReadIsr()
				if err := execDev.ReadStruct("isr"); err != nil {
					t.Fatalf("seed %d: ReadStruct: %v", seed, err)
				}
				for _, f := range []struct {
					g bool
					n string
				}{
					{genDev.Prx(), "prx"}, {genDev.Ptx(), "ptx"},
					{genDev.Rxe(), "rxe"}, {genDev.Txe(), "txe"},
					{genDev.Ovw(), "ovw"}, {genDev.Cnt(), "cnt"},
					{genDev.Rdc(), "rdc"}, {genDev.RstFlag(), "rst_flag"},
				} {
					genRig.record(b2i(f.g))
					execRig.record(get(f.n))
				}
			case 7:
				genDev.SetIsrAck(uint8(v))
				set("isr_ack", int64(v))
			case 8:
				genDev.SetRsar0(uint8(v))
				set("rsar0", int64(v))
				genDev.SetRsar1(uint8(v>>1) | 0x40)
				set("rsar1", int64(v>>1|0x40))
				genDev.SetRbcr0(uint8(v & 0x1f))
				set("rbcr0", int64(v&0x1f))
				genDev.SetRbcr1(0)
				set("rbcr1", 0)
			case 9:
				genDev.SetRcrMode(uint8(v & 0x1f))
				set("rcr_mode", int64(v&0x1f))
				genDev.SetTcrMode(uint8(v & 0x1f))
				set("tcr_mode", int64(v&0x1f))
				genDev.SetDcrMode(uint8(v & 0x3f))
				set("dcr_mode", int64(v&0x3f))
				genDev.SetImrMask(uint8(v & 0x7f))
				set("imr_mask", int64(v&0x7f))
			case 10:
				// Page-1 registers: the pre-action flips the page bits.
				genDev.SetCurr(uint8(v))
				set("curr", int64(v))
				genRig.record(int64(genDev.Curr()))
				execRig.record(get("curr"))
				genDev.SetPar0(uint8(v))
				set("par0", int64(v))
				genRig.record(int64(genDev.Par0()))
				execRig.record(get("par0"))
			case 11:
				genRig.record(int64(genDev.RemoteData()))
				execRig.record(get("remote_data"))
			case 12:
				buf := make([]uint16, 4)
				genDev.ReadRemoteDataBlock(buf)
				for _, w := range buf {
					genRig.record(int64(w))
				}
				ebuf := make([]uint16, 4)
				if err := execDev.ReadBlock16("remote_data", ebuf); err != nil {
					t.Fatalf("seed %d: ReadBlock16: %v", seed, err)
				}
				for _, w := range ebuf {
					execRig.record(int64(w))
				}
			case 13:
				genNIC.InjectFrame(frame)
				execNIC.InjectFrame(frame)
			}
		}
		compareRigs(t, seed, genRig, execRig)

		// Final controller state through the raw bus: command register and
		// the page-0 ISR.
		for _, off := range []uint32{0, 7} {
			g, e := genRig.space.In8(0x300+off), execRig.space.In8(0x300+off)
			if g != e {
				t.Fatalf("seed %d: final NIC state differs at +%d: %#x vs %#x", seed, off, g, e)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Permedia2 graphics controller

func newPermedia2Rig() (*rig, *simpm.Sim) {
	var clk bus.Clock
	space := bus.NewSpace("mmio", &clk, bus.DefaultMemCosts())
	chip := simpm.New(&clk, 640, 480)
	space.MustMapNamed("permedia2", 0xf0000000, 0x100, chip)
	return newRig(space), chip
}

func TestDifferentialPermedia2(t *testing.T) {
	spec := core.MustCompile(specs.Permedia2)
	for seed := int64(0); seed < 32; seed++ {
		genRig, genChip := newPermedia2Rig()
		execRig, execChip := newPermedia2Rig()
		genDev := genpm.New(genRig.space, 0xf0000000)
		execDev, err := core.Link(spec, execRig.space, map[string]uint32{"reg": 0xf0000000}, execOpts())
		if err != nil {
			t.Fatal(err)
		}
		get, set := execAccessors(t, seed, execDev)

		rng := rand.New(rand.NewSource(seed ^ 0x3d1ab5))
		for op := 0; op < 96; op++ {
			v := rng.Intn(1 << 16)
			switch rng.Intn(8) {
			case 0:
				genRig.record(int64(genDev.FifoSpace()))
				execRig.record(get("fifo_space"))
			case 1:
				genDev.SetWindowBase(uint32(v))
				set("window_base", int64(v))
			case 2:
				// Independent co-tenants of LogicalOpMode, composed
				// through the register shadow.
				genDev.SetLogicOp(uint8(v & 0xf))
				set("logic_op", int64(v&0xf))
				genDev.SetLogicOpEnable(v&16 != 0)
				set("logic_op_enable", int64(v>>4&1))
			case 3:
				genDev.SetFbDepth(genpm.FbDepthVal(v & 3))
				set("fb_depth", int64(v&3))
				genDev.SetDither(v&4 != 0)
				set("dither", int64(v>>2&1))
			case 4:
				genDev.SetColor(uint32(v))
				set("color", int64(v))
				genDev.SetStartXDom(uint32(v & 0x3ff))
				set("start_x_dom", int64(v&0x3ff))
				genDev.SetStartXSub(uint32((v >> 4) & 0x3ff))
				set("start_x_sub", int64(v>>4&0x3ff))
				genDev.SetStartY(uint32(v & 0xff))
				set("start_y", int64(v&0xff))
				genDev.SetDY(1)
				set("d_y", 1)
				genDev.SetCount(uint32(v & 0x3f))
				set("count", int64(v&0x3f))
			case 5:
				genDev.SetRectOrigin(uint32(v))
				set("rect_origin", int64(v))
				genDev.SetRectSize(uint32(v & 0x3f003f))
				set("rect_size", int64(v&0x3f003f))
			case 6:
				genDev.SetScissorMin(uint32(v))
				set("scissor_min", int64(v))
				genDev.SetScissorMax(uint32(v | 0x10010))
				set("scissor_max", int64(v|0x10010))
				genDev.SetFbReadMode(uint32(v))
				set("fb_read_mode", int64(v))
				genDev.SetSourceOffset(uint32(v & 0xffff))
				set("source_offset", int64(v&0xffff))
			case 7:
				r := genpm.RenderFILL
				if v&1 == 1 {
					r = genpm.RenderCOPY
				}
				genDev.SetRender(r)
				set("render", int64(r))
			}
		}
		compareRigs(t, seed, genRig, execRig)

		if g, e := genChip.Pixel(0, 0), execChip.Pixel(0, 0); g != e {
			t.Fatalf("seed %d: final framebuffer differs at origin: %#x vs %#x", seed, g, e)
		}
		if g, e := genRig.space.In32(0xf0000000), execRig.space.In32(0xf0000000); g != e {
			t.Fatalf("seed %d: final FIFO state differs: %#x vs %#x", seed, g, e)
		}
	}
}

// ---------------------------------------------------------------------------
// Intel 8259A interrupt controller

func newPICRig() (*rig, *simpic.Sim) {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	pic := simpic.New()
	space.MustMapNamed("pic8259", 0x20, 2, pic)
	return newRig(space), pic
}

func TestDifferentialPIC8259(t *testing.T) {
	spec := core.MustCompile(specs.PIC8259)
	for seed := int64(0); seed < 32; seed++ {
		genRig, genPIC := newPICRig()
		execRig, execPIC := newPICRig()
		genDev := genpic.New(genRig.space, 0x20)
		execDev, err := core.Link(spec, execRig.space, map[string]uint32{"base": 0x20}, execOpts())
		if err != nil {
			t.Fatal(err)
		}
		get, set := execAccessors(t, seed, execDev)
		writeStruct := func(name string) {
			if err := execDev.WriteStruct(name); err != nil {
				t.Fatalf("seed %d: WriteStruct(%s): %v", seed, name, err)
			}
		}

		rng := rand.New(rand.NewSource(seed ^ 0x8259))
		for op := 0; op < 96; op++ {
			v := rng.Intn(256)
			switch rng.Intn(10) {
			case 0:
				// Stage a batch of ICW fields; the flush decides which
				// command words go out.
				genDev.SetLirq(uint8(v & 7))
				set("lirq", int64(v&7))
				genDev.SetLtim(v&8 != 0)
				set("ltim", int64(v>>3&1))
				genDev.SetSngl(genpic.SnglVal(v >> 4 & 1))
				set("sngl", int64(v>>4&1))
				genDev.SetIc4(v&32 != 0)
				set("ic4", int64(v>>5&1))
			case 1:
				genDev.SetBaseVec(uint8(v & 0x1f))
				set("base_vec", int64(v&0x1f))
				genDev.SetSlaves(uint8(v))
				set("slaves", int64(v))
			case 2:
				genDev.SetSfnm(v&1 != 0)
				set("sfnm", int64(v&1))
				genDev.SetBuf(uint8(v >> 1 & 3))
				set("buf", int64(v>>1&3))
				genDev.SetAeoi(v&8 != 0)
				set("aeoi", int64(v>>3&1))
				genDev.SetMicroprocessor(genpic.MicroprocessorVal(v >> 4 & 1))
				set("microprocessor", int64(v>>4&1))
			case 3:
				// The guarded flush: ICW3/ICW4 ride along only when the
				// staged SNGL/IC4 values call for them.
				genDev.WriteInit()
				writeStruct("init")
			case 4:
				genDev.SetIrqMask(uint8(v))
				set("irq_mask", int64(v))
			case 5:
				eoi := genpic.EoiNONSPECIFICEOI
				switch v % 3 {
				case 1:
					eoi = genpic.EoiSPECIFICEOI
				case 2:
					eoi = genpic.EoiROTATENONSPECIFIC
				}
				genDev.SetEoi(eoi)
				set("eoi", int64(eoi))
				genDev.SetEoiLevel(uint8(v & 7))
				set("eoi_level", int64(v&7))
				genDev.WriteEoiCmd()
				writeStruct("eoi_cmd")
			case 6:
				genRig.record(int64(genDev.Irr()))
				execRig.record(get("irr"))
			case 7:
				genRig.record(int64(genDev.Isr()))
				execRig.record(get("isr"))
			case 8:
				genPIC.Raise(v & 7)
				execPIC.Raise(v & 7)
			case 9:
				gv, gok := genPIC.Ack()
				ev, eok := execPIC.Ack()
				genRig.record(int64(gv) + b2i(gok)<<8)
				execRig.record(int64(ev) + b2i(eok)<<8)
			}
		}
		compareRigs(t, seed, genRig, execRig)

		// Bit-identical device state, observed through the raw bus.
		for off := uint32(0); off < 2; off++ {
			g, e := genRig.space.In8(0x20+off), execRig.space.In8(0x20+off)
			if g != e {
				t.Fatalf("seed %d: final device state differs at +%d: %#x vs %#x", seed, off, g, e)
			}
		}
		if g, e := genPIC.ISR(), execPIC.ISR(); g != e {
			t.Fatalf("seed %d: final ISR differs: %#x vs %#x", seed, g, e)
		}
	}
}

// ---------------------------------------------------------------------------
// Intel 8237A DMA controller

func newDMARig() (*rig, *simdma.Sim) {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	dma := simdma.New()
	space.MustMapNamed("dma8237", 0x00, 13, dma)
	return newRig(space), dma
}

func TestDifferentialDMA8237(t *testing.T) {
	spec := core.MustCompile(specs.DMA8237)
	for seed := int64(0); seed < 32; seed++ {
		genRig, genDMA := newDMARig()
		execRig, execDMA := newDMARig()
		genDev := gendma.New(genRig.space, 0x00)
		execDev, err := core.Link(spec, execRig.space, map[string]uint32{"io": 0x00}, execOpts())
		if err != nil {
			t.Fatal(err)
		}
		get, set := execAccessors(t, seed, execDev)
		writeStruct := func(name string) {
			if err := execDev.WriteStruct(name); err != nil {
				t.Fatalf("seed %d: WriteStruct(%s): %v", seed, name, err)
			}
		}

		rng := rand.New(rand.NewSource(seed ^ 0x8237))
		for op := 0; op < 96; op++ {
			v := rng.Intn(1 << 16)
			switch rng.Intn(9) {
			case 0:
				// The serialized byte pair: flip-flop clear, low, high.
				genDev.SetAddr0(uint16(v))
				set("addr0", int64(v))
			case 1:
				genDev.SetCount0(uint16(v))
				set("count0", int64(v))
			case 2:
				genRig.record(int64(genDev.Addr0()))
				execRig.record(get("addr0"))
			case 3:
				genRig.record(int64(genDev.Count0()))
				execRig.record(get("count0"))
			case 4:
				genDev.ReadDmaStatus()
				if err := execDev.ReadStruct("dma_status"); err != nil {
					t.Fatalf("seed %d: ReadStruct: %v", seed, err)
				}
				genRig.record(int64(genDev.Reached()))
				execRig.record(get("reached"))
				genRig.record(int64(genDev.Requests()))
				execRig.record(get("requests"))
			case 5:
				genDev.SetMaskChan(uint8(v & 3))
				set("mask_chan", int64(v&3))
				genDev.SetMaskOn(v&4 != 0)
				set("mask_on", int64(v>>2&1))
				genDev.WriteSingleMask()
				writeStruct("single_mask")
			case 6:
				genDev.SetChan(uint8(v & 3))
				set("chan", int64(v&3))
				genDev.SetXfer(gendma.XferVal(v >> 2 % 3))
				set("xfer", int64(v>>2%3))
				genDev.SetAutoInit(v&16 != 0)
				set("auto_init", int64(v>>4&1))
				genDev.SetDown(v&32 != 0)
				set("down", int64(v>>5&1))
				genDev.SetMmode(gendma.MmodeVal(v >> 6 & 3))
				set("mmode", int64(v>>6&3))
				genDev.WriteMode()
				writeStruct("mode")
			case 7:
				genDMA.Request(v&3, v&4 != 0)
				execDMA.Request(v&3, v&4 != 0)
			case 8:
				genDMA.Transfer(v & 0x3ff)
				execDMA.Transfer(v & 0x3ff)
			}
		}
		compareRigs(t, seed, genRig, execRig)

		if g, e := genDMA.BaseAddr0(), execDMA.BaseAddr0(); g != e {
			t.Fatalf("seed %d: final base address differs: %#x vs %#x", seed, g, e)
		}
		if g, e := genDMA.BaseCount0(), execDMA.BaseCount0(); g != e {
			t.Fatalf("seed %d: final base count differs: %#x vs %#x", seed, g, e)
		}
		if g, e := genDMA.FlipFlop(), execDMA.FlipFlop(); g != e {
			t.Fatalf("seed %d: final flip-flop differs: %v vs %v", seed, g, e)
		}
	}
}

// ---------------------------------------------------------------------------
// Crystal CS4236B audio controller

func newCSRig() (*rig, *simcs.Sim) {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	codec := simcs.New()
	space.MustMapNamed("cs4236", 0x530, 2, codec)
	return newRig(space), codec
}

// extDomain is the ext register family's argument domain {0..17, 25}.
var extDomain = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 25}

func TestDifferentialCS4236(t *testing.T) {
	spec := core.MustCompile(specs.CS4236)
	for seed := int64(0); seed < 32; seed++ {
		genRig, genCS := newCSRig()
		execRig, execCS := newCSRig()
		genDev := gencs.New(genRig.space, 0x530)
		execDev, err := core.Link(spec, execRig.space, map[string]uint32{"base": 0x530}, execOpts())
		if err != nil {
			t.Fatal(err)
		}
		get, set := execAccessors(t, seed, execDev)

		// The valid rate-divider encodings of the pfmt structure.
		rates := []int{0x0, 0x2, 0x3, 0x6, 0x7, 0xb, 0xc}

		rng := rand.New(rand.NewSource(seed ^ 0x4236))
		for op := 0; op < 96; op++ {
			v := rng.Intn(256)
			j := extDomain[rng.Intn(len(extDomain))]
			switch rng.Intn(13) {
			case 0:
				genDev.SetIA(uint8(v & 0x1f))
				set("IA", int64(v&0x1f))
			case 1:
				genRig.record(int64(genDev.IA()))
				execRig.record(get("IA"))
			case 2:
				genDev.SetAfe2(uint8(v))
				set("afe2", int64(v))
			case 3:
				genRig.record(int64(genDev.Afe2()))
				execRig.record(get("afe2"))
			case 4:
				genDev.SetACF(v&1 != 0)
				set("ACF", int64(v&1))
			case 5:
				genRig.record(b2i(genDev.ACF()))
				execRig.record(get("ACF"))
			case 6:
				// The full three-step extended-register automaton.
				genDev.SetExt(uint8(v), j)
				if err := execDev.SetParam("ext", j, int64(v)); err != nil {
					t.Fatalf("seed %d: SetParam(ext,%d): %v", seed, j, err)
				}
			case 7:
				genRig.record(int64(genDev.Ext(j)))
				ev, err := execDev.GetParam("ext", j)
				if err != nil {
					t.Fatalf("seed %d: GetParam(ext,%d): %v", seed, j, err)
				}
				execRig.record(ev)
			case 8:
				genCS.SetExt(j, uint8(v))
				execCS.SetExt(j, uint8(v))
			case 9:
				// The playback-format structure: three staged fields, one
				// flush into I8 (the sound pipeline's format programming).
				r := rates[rng.Intn(len(rates))]
				genDev.SetRate(gencs.RateVal(r))
				set("rate", int64(r))
				genDev.SetStereo(v&1 != 0)
				set("stereo", int64(v&1))
				genDev.SetFmt(gencs.FmtVal(v >> 1 & 3))
				set("fmt", int64(v>>1&3))
				genDev.WritePfmt()
				if err := execDev.WriteStruct("pfmt"); err != nil {
					t.Fatalf("seed %d: WriteStruct(pfmt): %v", seed, err)
				}
			case 10:
				genDev.ReadPfmt()
				if err := execDev.ReadStruct("pfmt"); err != nil {
					t.Fatalf("seed %d: ReadStruct(pfmt): %v", seed, err)
				}
				genRig.record(b2i(genDev.Stereo()))
				execRig.record(get("stereo"))
			case 11:
				// pen and sdc share I9 through register shadows — the
				// co-tenant composition path PR 4's codegen fix covers.
				genDev.SetPen(v&1 != 0)
				set("pen", int64(v&1))
				genDev.SetSdc(v&2 != 0)
				set("sdc", int64(v>>1&1))
				genRig.record(b2i(genDev.Pen()))
				execRig.record(get("pen"))
				genRig.record(b2i(genDev.Sdc()))
				execRig.record(get("sdc"))
			case 12:
				// The playback-interrupt flag and its write-to-ack path.
				genCS.RaisePI()
				execCS.RaisePI()
				genRig.record(b2i(genDev.Pi()))
				execRig.record(get("pi"))
				genDev.SetPi(v&1 != 0)
				set("pi", int64(v&1))
			}
		}
		compareRigs(t, seed, genRig, execRig)

		// Bit-identical device state, observed through the raw bus.
		for off := uint32(0); off < 2; off++ {
			g, e := genRig.space.In8(0x530+off), execRig.space.In8(0x530+off)
			if g != e {
				t.Fatalf("seed %d: final device state differs at +%d: %#x vs %#x", seed, off, g, e)
			}
		}
		for _, j := range extDomain {
			if g, e := genCS.Ext(j), execCS.Ext(j); g != e {
				t.Fatalf("seed %d: final X%d differs: %#x vs %#x", seed, j, g, e)
			}
		}
	}
}

// csWindow is an index/data register file in the CS4236B layout: offset 0
// selects one of 32 indirect registers, offset 1 reads or writes the
// selected one. Tests change regs directly to model the device updating a
// register behind the driver.
type csWindow struct {
	index uint8
	regs  [32]uint8
}

func (w *csWindow) BusRead(off uint32, width int) uint32 {
	if off == 0 {
		return uint32(w.index)
	}
	return uint32(w.regs[w.index&0x1f])
}

func (w *csWindow) BusWrite(off uint32, width int, v uint32) {
	if off == 0 {
		w.index = uint8(v)
		return
	}
	w.regs[w.index&0x1f] = uint8(v)
}

// TestCoTenantComposesFromShadow pins where a read-modify-write takes its
// co-tenant bits from: pen and sdc share I9, and a pen write composes sdc
// from the register shadow, i.e. the value last written, not the value
// last read. The device sets sdc behind the driver and the driver reads
// it; the following pen write still carries the shadow's sdc (0), in the
// stub and in the interpreter alike.
func TestCoTenantComposesFromShadow(t *testing.T) {
	spec := core.MustCompile(specs.CS4236)
	newWindowRig := func() (*rig, *csWindow) {
		var clk bus.Clock
		space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
		w := &csWindow{}
		space.MustMapNamed("cs4236", 0x530, 2, w)
		return newRig(space), w
	}
	genRig, genWin := newWindowRig()
	execRig, execWin := newWindowRig()
	genDev := gencs.New(genRig.space, 0x530)
	execDev, err := core.Link(spec, execRig.space, map[string]uint32{"base": 0x530}, execOpts())
	if err != nil {
		t.Fatal(err)
	}
	get, set := execAccessors(t, 0, execDev)

	genDev.SetPen(true)
	set("pen", 1)
	genWin.regs[9] |= 0x4 // the device sets sdc (I9 bit 2)
	execWin.regs[9] |= 0x4
	genRig.record(b2i(genDev.Sdc()))
	execRig.record(get("sdc"))
	genDev.SetPen(false)
	set("pen", 0)

	compareRigs(t, 0, genRig, execRig)
	if last := genRig.ops[len(genRig.ops)-1]; last.Kind != obs.KindPortWrite || last.Value != 0 {
		t.Errorf("final I9 write = %s, want out8[1329]=0x0", last)
	}
}
