package gen_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/devil/exec"
	genbm "repro/internal/gen/busmouse"
	gencs "repro/internal/gen/cs4236"
	gendma "repro/internal/gen/dma8237"
	genide "repro/internal/gen/ide"
	genne "repro/internal/gen/ne2000"
	genpm "repro/internal/gen/permedia2"
	genpic "repro/internal/gen/pic8259"
	genpiix4 "repro/internal/gen/piix4"
	"repro/internal/snap"
	"repro/internal/specs"
)

// The cross-path snapshot tests drive the compiled stub and the
// interpreter through identical operation sequences — covering every
// state class of the canonical layout: cells, variable caches, register
// shadows, elision guards, structure snapshots, and staged flushes (some
// left unflushed on purpose) — then require MarshalState to produce
// byte-identical blobs, and each back end to restore from the other's
// blob and re-marshal it unchanged.

// checkCross asserts byte-identical snapshots across back ends and that
// each freshly built back end round-trips the other's blob.
func checkCross(t *testing.T, genDev, execDev, freshGen snap.Snapshotter, freshExec *exec.Device) {
	t.Helper()
	gb, err := genDev.MarshalState(nil)
	if err != nil {
		t.Fatalf("compiled MarshalState: %v", err)
	}
	eb, err := execDev.(snap.Snapshotter).MarshalState(nil)
	if err != nil {
		t.Fatalf("interpreted MarshalState: %v", err)
	}
	if !bytes.Equal(gb, eb) {
		t.Fatalf("cross-path snapshots differ:\ncompiled    %x\ninterpreted %x", gb, eb)
	}
	checkStubGolden(t, gb)
	if err := freshExec.UnmarshalState(gb); err != nil {
		t.Fatalf("interpreter restore of compiled blob: %v", err)
	}
	rb, err := freshExec.MarshalState(nil)
	if err != nil {
		t.Fatalf("interpreter re-marshal: %v", err)
	}
	if !bytes.Equal(rb, gb) {
		t.Fatalf("interpreter did not round-trip the compiled blob:\nin  %x\nout %x", gb, rb)
	}
	if err := freshGen.UnmarshalState(eb); err != nil {
		t.Fatalf("compiled restore of interpreted blob: %v", err)
	}
	rb, err = freshGen.MarshalState(nil)
	if err != nil {
		t.Fatalf("compiled re-marshal: %v", err)
	}
	if !bytes.Equal(rb, eb) {
		t.Fatalf("compiled stub did not round-trip the interpreted blob:\nin  %x\nout %x", eb, rb)
	}
}

func mustLink(t *testing.T, spec []byte, r *rig, ports map[string]uint32) *exec.Device {
	t.Helper()
	dev, err := core.Link(core.MustCompile(spec), r.space, ports, execOpts())
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestSnapshotCrossPathCS4236(t *testing.T) {
	ports := map[string]uint32{"base": 0x530}
	genRig, _ := newCSRig()
	execRig, _ := newCSRig()
	genDev := gencs.New(genRig.space, 0x530)
	execDev := mustLink(t, specs.CS4236, execRig, ports)
	_, set := execAccessors(t, 0, execDev)

	genDev.SetIA(0x12)
	set("IA", 0x12)
	genDev.SetAfe2(0x34)
	set("afe2", 0x34)
	genDev.SetACF(true) // flush-cached variable
	set("ACF", 1)
	genDev.SetExt(0x55, 25) // three-step automaton: cell, shadows, XRAE staging
	if err := execDev.SetParam("ext", 25, 0x55); err != nil {
		t.Fatal(err)
	}
	genDev.SetPen(true) // I9 co-tenants through the register shadow
	set("pen", 1)
	genDev.SetSdc(true)
	set("sdc", 1)
	genDev.SetRate(gencs.RateVal(0x6)) // staged structure, flushed
	set("rate", 0x6)
	genDev.SetStereo(true)
	set("stereo", 1)
	genDev.SetFmt(gencs.FmtVal(1))
	set("fmt", 1)
	genDev.WritePfmt()
	if err := execDev.WriteStruct("pfmt"); err != nil {
		t.Fatal(err)
	}
	genDev.ReadPfmt() // structure snapshot + validity
	if err := execDev.ReadStruct("pfmt"); err != nil {
		t.Fatal(err)
	}
	genDev.SetRate(gencs.RateVal(0xb)) // left staged, not flushed
	set("rate", 0xb)

	fgRig, _ := newCSRig()
	feRig, _ := newCSRig()
	checkCross(t, genDev, execDev, gencs.New(fgRig.space, 0x530), mustLink(t, specs.CS4236, feRig, ports))
}

func TestSnapshotCrossPathDMA8237(t *testing.T) {
	ports := map[string]uint32{"io": 0x00}
	genRig, _ := newDMARig()
	execRig, _ := newDMARig()
	genDev := gendma.New(genRig.space, 0x00)
	execDev := mustLink(t, specs.DMA8237, execRig, ports)
	_, set := execAccessors(t, 0, execDev)

	genDev.SetAddr0(0x1234)
	set("addr0", 0x1234)
	genDev.SetCount0(0x10)
	set("count0", 0x10)
	genDev.SetMaskChan(2)
	set("mask_chan", 2)
	genDev.SetMaskOn(true)
	set("mask_on", 1)
	genDev.WriteSingleMask()
	if err := execDev.WriteStruct("single_mask"); err != nil {
		t.Fatal(err)
	}
	genDev.SetChan(1)
	set("chan", 1)
	genDev.SetXfer(gendma.XferVal(1))
	set("xfer", 1)
	genDev.SetAutoInit(true)
	set("auto_init", 1)
	genDev.SetDown(false)
	set("down", 0)
	genDev.SetMmode(gendma.MmodeVal(1))
	set("mmode", 1)
	genDev.WriteMode()
	if err := execDev.WriteStruct("mode"); err != nil {
		t.Fatal(err)
	}
	genDev.ReadDmaStatus()
	if err := execDev.ReadStruct("dma_status"); err != nil {
		t.Fatal(err)
	}
	genDev.SetMaskChan(3) // left staged, not flushed
	set("mask_chan", 3)

	fgRig, _ := newDMARig()
	feRig, _ := newDMARig()
	checkCross(t, genDev, execDev, gendma.New(fgRig.space, 0x00), mustLink(t, specs.DMA8237, feRig, ports))
}

func TestSnapshotCrossPathPIC8259(t *testing.T) {
	ports := map[string]uint32{"base": 0x20}
	genRig, _ := newPICRig()
	execRig, _ := newPICRig()
	genDev := genpic.New(genRig.space, 0x20)
	execDev := mustLink(t, specs.PIC8259, execRig, ports)
	_, set := execAccessors(t, 0, execDev)

	genDev.SetLirq(5)
	set("lirq", 5)
	genDev.SetLtim(true)
	set("ltim", 1)
	genDev.SetSngl(genpic.SnglVal(1))
	set("sngl", 1)
	genDev.SetIc4(true)
	set("ic4", 1)
	genDev.SetBaseVec(0x08)
	set("base_vec", 0x08)
	genDev.SetSfnm(false)
	set("sfnm", 0)
	genDev.SetBuf(0)
	set("buf", 0)
	genDev.SetAeoi(true)
	set("aeoi", 1)
	genDev.SetMicroprocessor(genpic.MicroprocessorVal(1))
	set("microprocessor", 1)
	genDev.WriteInit() // guarded flush: ICW3/ICW4 ride along per staging
	if err := execDev.WriteStruct("init"); err != nil {
		t.Fatal(err)
	}
	genDev.SetIrqMask(0xfe)
	set("irq_mask", 0xfe)
	genDev.SetEoi(genpic.EoiNONSPECIFICEOI)
	set("eoi", int64(genpic.EoiNONSPECIFICEOI))
	genDev.SetEoiLevel(3) // staged for eoi_cmd, not flushed
	set("eoi_level", 3)

	fgRig, _ := newPICRig()
	feRig, _ := newPICRig()
	checkCross(t, genDev, execDev, genpic.New(fgRig.space, 0x20), mustLink(t, specs.PIC8259, feRig, ports))
}

func TestSnapshotCrossPathPermedia2(t *testing.T) {
	ports := map[string]uint32{"reg": 0xf0000000}
	genRig, _ := newPermedia2Rig()
	execRig, _ := newPermedia2Rig()
	genDev := genpm.New(genRig.space, 0xf0000000)
	execDev := mustLink(t, specs.Permedia2, execRig, ports)
	_, set := execAccessors(t, 0, execDev)

	genDev.SetWindowBase(0x1000)
	set("window_base", 0x1000)
	genDev.SetLogicOp(0x3) // LogicalOpMode co-tenants through the shadow
	set("logic_op", 0x3)
	genDev.SetLogicOpEnable(true)
	set("logic_op_enable", 1)
	genDev.SetFbDepth(genpm.FbDepthVal(2))
	set("fb_depth", 2)
	genDev.SetDither(true)
	set("dither", 1)
	genDev.SetColor(0xa5)
	set("color", 0xa5)
	genDev.SetRectOrigin(0x00100010)
	set("rect_origin", 0x00100010)
	genDev.SetRectSize(0x00200020)
	set("rect_size", 0x00200020)
	genDev.SetRender(genpm.RenderFILL)
	set("render", int64(genpm.RenderFILL))

	fgRig, _ := newPermedia2Rig()
	feRig, _ := newPermedia2Rig()
	checkCross(t, genDev, execDev, genpm.New(fgRig.space, 0xf0000000), mustLink(t, specs.Permedia2, feRig, ports))
}

func TestSnapshotCrossPathNE2000(t *testing.T) {
	ports := map[string]uint32{"base": 0x300, "dma": 0x310, "rst": 0x31f}
	genRig, _ := newNE2000Rig()
	execRig, _ := newNE2000Rig()
	genDev := genne.New(genRig.space, 0x300, 0x310, 0x31f)
	execDev := mustLink(t, specs.NE2000, execRig, ports)
	_, set := execAccessors(t, 0, execDev)

	genDev.SetSt(genne.StSTART)
	set("st", int64(genne.StSTART))
	genDev.SetPstart(0x40)
	set("pstart", 0x40)
	genDev.SetPstop(0x80)
	set("pstop", 0x80)
	genDev.SetBnry(0x40)
	set("bnry", 0x40)
	genDev.SetCurr(0x41) // page-1 register: pre-action flips the page bits
	set("curr", 0x41)
	genDev.SetRsar0(0x10)
	set("rsar0", 0x10)
	genDev.SetRbcr0(0x20)
	set("rbcr0", 0x20)
	genDev.ReadIsr()
	if err := execDev.ReadStruct("isr"); err != nil {
		t.Fatal(err)
	}

	fgRig, _ := newNE2000Rig()
	feRig, _ := newNE2000Rig()
	checkCross(t, genDev, execDev, genne.New(fgRig.space, 0x300, 0x310, 0x31f), mustLink(t, specs.NE2000, feRig, ports))
}

func TestSnapshotCrossPathIDE(t *testing.T) {
	ports := map[string]uint32{"data": 0x1f0, "data32": 0x1f0, "base": 0x1f0, "ctl": 0x3f6}
	genRig, _ := newIDERig()
	execRig, _ := newIDERig()
	genDev := genide.New(genRig.space, 0x1f0, 0x1f0, 0x1f0, 0x3f6)
	execDev := mustLink(t, specs.IDE, execRig, ports)
	_, set := execAccessors(t, 0, execDev)

	genDev.SetNsect(4)
	set("nsect", 4)
	genDev.SetLbaLow(0x10)
	set("lba_low", 0x10)
	genDev.SetLbaMode(genide.LbaModeVal(1))
	set("lba_mode", 1)
	genDev.SetDrive(0)
	set("drive", 0)
	genDev.SetHead(0)
	set("head", 0)
	genDev.ReadIdeStatus()
	if err := execDev.ReadStruct("ide_status"); err != nil {
		t.Fatal(err)
	}

	fgRig, _ := newIDERig()
	feRig, _ := newIDERig()
	checkCross(t, genDev, execDev, genide.New(fgRig.space, 0x1f0, 0x1f0, 0x1f0, 0x3f6), mustLink(t, specs.IDE, feRig, ports))
}

func TestSnapshotCrossPathPIIX4(t *testing.T) {
	ports := map[string]uint32{"bm": 0xc000, "prd": 0xc004}
	genRig, _ := newPIIX4Rig()
	execRig, _ := newPIIX4Rig()
	genDev := genpiix4.New(genRig.space, 0xc000, 0xc004)
	execDev := mustLink(t, specs.PIIX4, execRig, ports)
	_, set := execAccessors(t, 0, execDev)

	genDev.SetBmDir(genpiix4.BmDirVal(1))
	set("bm_dir", 1)
	genDev.SetPrdAddr(0x8000)
	set("prd_addr", 0x8000)
	genDev.SetBmStart(genpiix4.BmStartVal(1))
	set("bm_start", 1)
	genDev.ReadBmStatus()
	if err := execDev.ReadStruct("bm_status"); err != nil {
		t.Fatal(err)
	}

	fgRig, _ := newPIIX4Rig()
	feRig, _ := newPIIX4Rig()
	checkCross(t, genDev, execDev, genpiix4.New(fgRig.space, 0xc000, 0xc004), mustLink(t, specs.PIIX4, feRig, ports))
}

func TestSnapshotCrossPathBusmouse(t *testing.T) {
	ports := map[string]uint32{"base": 0x23c}
	genRig, genMouse := newBusmouseRig()
	execRig, execMouse := newBusmouseRig()
	genDev := genbm.New(genRig.space, 0x23c)
	execDev := mustLink(t, specs.Busmouse, execRig, ports)
	_, set := execAccessors(t, 0, execDev)

	genDev.SetSignature(0xa5)
	set("signature", 0xa5)
	genDev.SetConfig(genbm.ConfigVal(1))
	set("config", 1)
	genMouse.Move(3, -2)
	execMouse.Move(3, -2)
	genDev.ReadMouseState()
	if err := execDev.ReadStruct("mouse_state"); err != nil {
		t.Fatal(err)
	}

	fgRig, _ := newBusmouseRig()
	feRig, _ := newBusmouseRig()
	checkCross(t, genDev, execDev, genbm.New(fgRig.space, 0x23c), mustLink(t, specs.Busmouse, feRig, ports))
}
