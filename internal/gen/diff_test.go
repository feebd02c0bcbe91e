package gen_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/devil/exec"
	"repro/internal/devil/ir"
	"repro/internal/devil/sema"
	"repro/internal/gen"
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
	simne "repro/internal/sim/ne2000"
	simpic "repro/internal/sim/pic8259"
	"repro/internal/snap"
	"repro/internal/specs"
)

// The differential rig drives the interpretive executor (package exec) and
// the compiled stubs (internal/gen) through identical randomized operation
// sequences, each against its own fresh simulator from gen.Devices. The
// operations are derived from the compiled specification: a get and a set
// of every interface variable the access plans provide, structure reads and
// flushes, block transfers, plus the device-side events of the table below.
// After each sequence both back ends must have produced the same bus trace
// (operation counts, addresses and values), returned the same values from
// every read, faulted identically, and left byte-identical simulator state
// and driver state, and each back end must restore the other's driver
// snapshot. The two implementations share one specification; this is the
// executable statement that they share one semantics.

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

// stubNew holds the stub constructors, keyed by gen.Devices name. Each
// takes the bus and one base address per port parameter, in the
// specification's port order.
var stubNew = map[string]any{
	"busmouse":  genbm.New,
	"ide":       genide.New,
	"piix4":     genpiix4.New,
	"ne2000":    genne.New,
	"permedia2": genpm.New,
	"pic8259":   genpic.New,
	"dma8237":   gendma.New,
	"cs4236":    gencs.New,
}

// event is a device-side stimulus: the simulator acting on its own,
// outside the driver interface. fire applies it to one simulator with the
// drawn arguments a and returns what the simulator reports (0 if nothing).
type event struct {
	name string
	fire func(sim snap.Snapshotter, a [2]int) int64
}

// events lists the device-side events of each device that has some.
var events = map[string][]event{
	"busmouse": {
		{"Move", func(s snap.Snapshotter, a [2]int) int64 {
			s.(*simbm.Sim).Move(a[0]%31-15, a[1]%31-15)
			return 0
		}},
		{"SetButtons", func(s snap.Snapshotter, a [2]int) int64 {
			s.(*simbm.Sim).SetButtons(uint8(a[0] & 7))
			return 0
		}},
	},
	"pic8259": {
		{"Raise", func(s snap.Snapshotter, a [2]int) int64 {
			s.(*simpic.Sim).Raise(a[0] & 7)
			return 0
		}},
		{"Ack", func(s snap.Snapshotter, a [2]int) int64 {
			v, ok := s.(*simpic.Sim).Ack()
			return int64(v) | b2i(ok)<<8
		}},
	},
	"dma8237": {
		{"Request", func(s snap.Snapshotter, a [2]int) int64 {
			s.(*simdma.Sim).Request(a[0]&3, a[1]&1 != 0)
			return 0
		}},
		{"Transfer", func(s snap.Snapshotter, a [2]int) int64 {
			return int64(s.(*simdma.Sim).Transfer(a[0] & 0x3ff))
		}},
	},
	"ne2000": {
		{"InjectFrame", func(s snap.Snapshotter, a [2]int) int64 {
			frame := make([]byte, 60+a[0]%64)
			for i := range frame {
				frame[i] = byte(i*7 + a[1])
			}
			return b2i(s.(*simne.Sim).InjectFrame(frame))
		}},
	},
	"cs4236": {
		{"RaisePI", func(s snap.Snapshotter, a [2]int) int64 {
			s.(*simcs.Sim).RaisePI()
			return 0
		}},
		{"SetExt", func(s snap.Snapshotter, a [2]int) int64 {
			s.(*simcs.Sim).SetExt(a[0]&0x1f, uint8(a[1]))
			return 0
		}},
	},
}

// chooser draws the rig's choices: a seeded *rand.Rand in the per-device
// tests, the fuzz input in FuzzDifferential.
type chooser interface{ Intn(n int) int }

// model is one device's operation table, derived from its compiled
// specification and the method set of its stub.
type model struct {
	d     gen.Device
	spec  *sema.Device
	bases []reflect.Value // constructor arguments after the bus
	ops   []*op
}

// op is one operation of the table. needs is the operation that must have
// run earlier in the sequence (a field getter's structure read); until it
// has, needs runs in op's place.
type op struct {
	name  string
	needs *op
	run   func(p *pair, c chooser)
}

// pair is one run: the compiled stub and the interpreter, each on its own
// simulator, and the operations run so far.
type pair struct {
	t             *testing.T
	where         string
	stub          reflect.Value
	exec          *exec.Device
	gen, ex       *rig
	genSim, exSim snap.Snapshotter
	ran           map[*op]bool
}

// normalize maps a Devil or Go name to the key stub methods are found by:
// lower case, '_' removed.
func normalize(name string) string { return strings.ToLower(strings.ReplaceAll(name, "_", "")) }

// newModel derives d's operations. It fails when an operation has no stub
// method or more than one, and when a stub method serves no operation.
func newModel(t testing.TB, d gen.Device) *model {
	t.Helper()
	spec := core.MustCompile(d.Spec)
	prog, err := ir.Lower(spec, execOpts().Opt)
	if err != nil {
		t.Fatal(err)
	}
	m := &model{d: d, spec: spec}
	for _, p := range spec.Ports {
		m.bases = append(m.bases, reflect.ValueOf(d.Ports[p.Name]))
	}
	stubType := reflect.TypeOf(stubNew[d.Name]).Out(0)
	methods := map[string][]reflect.Method{}
	for i := 0; i < stubType.NumMethod(); i++ {
		meth := stubType.Method(i)
		methods[normalize(meth.Name)] = append(methods[normalize(meth.Name)], meth)
	}
	used := map[string]bool{"marshalstate": true, "unmarshalstate": true}
	method := func(key string) reflect.Method {
		if ms := methods[key]; len(ms) != 1 {
			t.Fatalf("%s: operation %s has %d stub methods", d.Name, key, len(ms))
		}
		used[key] = true
		return methods[key][0]
	}

	reads := map[*sema.Structure]*op{}
	var structOps []*op
	for _, s := range spec.Structures {
		if s.Private {
			continue
		}
		sp := prog.Structs[s.Index]
		if sp.Read != nil {
			reads[s] = structOp(s, "read", method("read"+normalize(s.Name)))
			structOps = append(structOps, reads[s])
		}
		if sp.Write != nil {
			structOps = append(structOps, structOp(s, "write", method("write"+normalize(s.Name))))
		}
	}
	for _, v := range spec.Interface() {
		vp := prog.Vars[v.Index]
		if vp.Get != nil {
			o := getOp(v, method(normalize(v.Name)))
			if v.Struct != nil {
				o.needs = reads[v.Struct]
			}
			m.ops = append(m.ops, o)
		}
		if vp.Set != nil {
			m.ops = append(m.ops, setOp(v, method("set"+normalize(v.Name))))
		}
		if vp.BlockIn != nil {
			m.ops = append(m.ops, blockOp(v, "Read", method("read"+normalize(v.Name)+"block")))
		}
		if vp.BlockOut != nil {
			m.ops = append(m.ops, blockOp(v, "Write", method("write"+normalize(v.Name)+"block")))
		}
	}
	m.ops = append(m.ops, structOps...)
	for key, ms := range methods {
		if !used[key] {
			t.Errorf("%s: stub method %s is no operation of the spec", d.Name, ms[0].Name)
		}
	}
	for _, e := range events[d.Name] {
		m.ops = append(m.ops, eventOp(e))
	}
	return m
}

// family draws a register-family argument from v's domain, returning it
// and the stub's trailing argument list.
func family(v *sema.Variable, c chooser) (int, []reflect.Value) {
	if v.Param == "" {
		return 0, nil
	}
	vals := v.Domain.Values()
	j := vals[c.Intn(len(vals))]
	return j, []reflect.Value{reflect.ValueOf(j)}
}

func getOp(v *sema.Variable, m reflect.Method) *op {
	return &op{name: "get " + v.Name, run: func(p *pair, c chooser) {
		j, args := family(v, c)
		p.access(func() int64 { return semantic(p.call(m, args...)[0]) }, func() (int64, error) {
			if v.Param != "" {
				return p.exec.GetParam(v.Name, j)
			}
			return p.exec.Get(v.Name)
		})
	}}
}

func setOp(v *sema.Variable, m reflect.Method) *op {
	return &op{name: "set " + v.Name, run: func(p *pair, c chooser) {
		val := draw(v.Type, c)
		j, args := family(v, c)
		arg := reflect.ValueOf(val != 0)
		if t := m.Type.In(1); t.Kind() != reflect.Bool {
			arg = reflect.ValueOf(val).Convert(t)
		}
		p.access(func() int64 { p.call(m, append([]reflect.Value{arg}, args...)...); return 0 }, func() (int64, error) {
			if v.Param != "" {
				return 0, p.exec.SetParam(v.Name, j, val)
			}
			return 0, p.exec.Set(v.Name, val)
		})
	}}
}

func structOp(s *sema.Structure, verb string, m reflect.Method) *op {
	return &op{name: verb + " " + s.Name, run: func(p *pair, c chooser) {
		p.access(func() int64 { p.call(m); return 0 }, func() (int64, error) {
			if verb == "read" {
				return 0, p.exec.ReadStruct(s.Name)
			}
			return 0, p.exec.WriteStruct(s.Name)
		})
	}}
}

// blockOp moves one to eight units through a block variable in the
// direction verb ("Read" or "Write"); every unit read is compared.
func blockOp(v *sema.Variable, verb string, m reflect.Method) *op {
	execName := fmt.Sprintf("%sBlock%d", verb, v.Width)
	return &op{name: strings.ToLower(verb) + "block " + v.Name, run: func(p *pair, c chooser) {
		n := 1 + c.Intn(8)
		stub, ex := reflect.MakeSlice(m.Type.In(1), n, n), reflect.MakeSlice(m.Type.In(1), n, n)
		if verb == "Write" {
			for i := 0; i < n; i++ {
				u := uint64(c.Intn(1 << 16))
				stub.Index(i).SetUint(u)
				ex.Index(i).SetUint(u)
			}
		}
		p.access(func() int64 { p.call(m, stub); return 0 }, func() (int64, error) {
			err, _ := reflect.ValueOf(p.exec).MethodByName(execName).Call([]reflect.Value{reflect.ValueOf(v.Name), ex})[0].Interface().(error)
			return 0, err
		})
		for i := 0; i < n; i++ {
			p.gen.record(int64(stub.Index(i).Uint()))
			p.ex.record(int64(ex.Index(i).Uint()))
		}
	}}
}

func eventOp(e event) *op {
	return &op{name: "event " + e.name, run: func(p *pair, c chooser) {
		a := [2]int{c.Intn(1 << 16), c.Intn(1 << 16)}
		p.gen.record(e.fire(p.genSim, a))
		p.ex.record(e.fire(p.exSim, a))
	}}
}

// draw picks a value the type's write rule allows: a writable symbol, its
// wildcard bits random, or a member of the type's range.
func draw(ty *sema.Type, c chooser) int64 {
	r := ty.WriteRule()
	if r.Enum {
		s := r.Syms[c.Intn(len(r.Syms))]
		v := s.Value
		if wild := ty.WidthMask() &^ s.CareMask; wild != 0 {
			v |= uint64(c.Intn(1<<31)) & wild
		}
		return int64(v)
	}
	rg := r.Range.Ranges[c.Intn(len(r.Range.Ranges))]
	return int64(rg.Lo + c.Intn(rg.Hi-rg.Lo+1))
}

// semantic converts a stub getter's result to the interpreter's value.
func semantic(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Bool:
		return b2i(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int()
	}
	return int64(v.Uint())
}

// call invokes stub method m.
func (p *pair) call(m reflect.Method, args ...reflect.Value) []reflect.Value {
	return m.Func.Call(append([]reflect.Value{p.stub}, args...))
}

// access runs one access on both back ends. A stub fault (a panic) and an
// interpreter error must carry the same text; otherwise the values both
// returned (0 for an access without one) are recorded.
func (p *pair) access(stub func() int64, ex func() (int64, error)) {
	var sv int64
	fault := stubFault(func() { sv = stub() })
	ev, err := ex()
	if err != nil || fault != "" {
		if err == nil || err.Error() != fault {
			p.t.Fatalf("%s: stub fault %q, interpreter error %v", p.where, fault, err)
		}
		return
	}
	p.gen.record(sv)
	p.ex.record(ev)
}

// machine builds a fresh simulator for d on its own bus and clock.
func (m *model) machine() (*rig, snap.Snapshotter) {
	clk := new(bus.Clock)
	space := newDeviceSpace(clk, m.d)
	sim := m.d.NewSim(clk, space)
	return newRig(space), sim
}

func (m *model) newStub(space *bus.Space) reflect.Value {
	return reflect.ValueOf(stubNew[m.d.Name]).Call(append([]reflect.Value{reflect.ValueOf(space)}, m.bases...))[0]
}

func (m *model) link(t testing.TB, space *bus.Space) *exec.Device {
	t.Helper()
	dev, err := core.Link(m.spec, space, m.d.Ports, execOpts())
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// run drives one pair through steps operations drawn by c and checks the
// trace, the read values, the fault texts and the final simulator state.
// It adds the operations run to ran and returns the pair.
func (m *model) run(t *testing.T, seed int64, c chooser, steps int, ran map[*op]int) *pair {
	t.Helper()
	p := &pair{t: t, ran: map[*op]bool{}}
	p.gen, p.genSim = m.machine()
	p.ex, p.exSim = m.machine()
	p.stub = m.newStub(p.gen.space)
	p.exec = m.link(t, p.ex.space)
	for i := 0; i < steps; i++ {
		o := m.ops[c.Intn(len(m.ops))]
		if o.needs != nil && !p.ran[o.needs] {
			o = o.needs
		}
		p.where = fmt.Sprintf("%s seed %d step %d (%s)", m.d.Name, seed, i, o.name)
		o.run(p, c)
		p.ran[o] = true
		ran[o]++
	}
	compareRigs(t, seed, p.gen, p.ex)

	gs, err := p.genSim.MarshalState(nil)
	if err != nil {
		t.Fatal(err)
	}
	es, err := p.exSim.MarshalState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gs, es) {
		t.Fatalf("%s seed %d: final simulator state differs", m.d.Name, seed)
	}
	return p
}

// cross checks p's driver snapshots with checkCross against a fresh stub
// and a fresh interpreter, and returns the stub's blob.
func (m *model) cross(t *testing.T, p *pair) []byte {
	t.Helper()
	freshGen, _ := m.machine()
	freshEx, _ := m.machine()
	stub := p.stub.Interface().(snap.Snapshotter)
	return checkCross(t, stub, p.exec, m.newStub(freshGen.space).Interface().(snap.Snapshotter), m.link(t, freshEx.space))
}

// Sequence shape of the rig: the per-device tests run diffSeeds seeded
// sequences of diffSteps operations. goldenSeed's stub blob is pinned in
// stubGolden.
const (
	diffSeeds  = 32
	diffSteps  = 128
	goldenSeed = 0
)

// device returns the gen.Devices entry called name.
func device(t *testing.T, name string) gen.Device {
	t.Helper()
	for _, d := range gen.Devices {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no device %q in gen.Devices", name)
	return gen.Device{}
}

// testDifferential runs the rig's seeded sequences on the named device
// and requires every derived operation and device event to run at least
// once.
func testDifferential(t *testing.T, name string) {
	m := newModel(t, device(t, name))
	t.Logf("%d operations", len(m.ops))
	ran := map[*op]int{}
	for seed := int64(0); seed < diffSeeds; seed++ {
		m.run(t, seed, rand.New(rand.NewSource(seed)), diffSteps, ran)
	}
	for _, o := range m.ops {
		if ran[o] == 0 {
			t.Errorf("operation %q never ran", o.name)
		}
	}
}

// testSnapshotCrossPath runs the same sequences and, after each, checks
// the driver snapshots across back ends (checkCross); goldenSeed's stub
// blob must match stubGolden.
func testSnapshotCrossPath(t *testing.T, name string) {
	m := newModel(t, device(t, name))
	for seed := int64(0); seed < diffSeeds; seed++ {
		blob := m.cross(t, m.run(t, seed, rand.New(rand.NewSource(seed)), diffSteps, map[*op]int{}))
		if seed == goldenSeed {
			checkStubGolden(t, blob)
		}
	}
}

func TestDifferentialBusmouse(t *testing.T)  { testDifferential(t, "busmouse") }
func TestDifferentialIDE(t *testing.T)       { testDifferential(t, "ide") }
func TestDifferentialPIIX4(t *testing.T)     { testDifferential(t, "piix4") }
func TestDifferentialNE2000(t *testing.T)    { testDifferential(t, "ne2000") }
func TestDifferentialPermedia2(t *testing.T) { testDifferential(t, "permedia2") }
func TestDifferentialPIC8259(t *testing.T)   { testDifferential(t, "pic8259") }
func TestDifferentialDMA8237(t *testing.T)   { testDifferential(t, "dma8237") }
func TestDifferentialCS4236(t *testing.T)    { testDifferential(t, "cs4236") }

func TestSnapshotCrossPathBusmouse(t *testing.T)  { testSnapshotCrossPath(t, "busmouse") }
func TestSnapshotCrossPathIDE(t *testing.T)       { testSnapshotCrossPath(t, "ide") }
func TestSnapshotCrossPathPIIX4(t *testing.T)     { testSnapshotCrossPath(t, "piix4") }
func TestSnapshotCrossPathNE2000(t *testing.T)    { testSnapshotCrossPath(t, "ne2000") }
func TestSnapshotCrossPathPermedia2(t *testing.T) { testSnapshotCrossPath(t, "permedia2") }
func TestSnapshotCrossPathPIC8259(t *testing.T)   { testSnapshotCrossPath(t, "pic8259") }
func TestSnapshotCrossPathDMA8237(t *testing.T)   { testSnapshotCrossPath(t, "dma8237") }
func TestSnapshotCrossPathCS4236(t *testing.T)    { testSnapshotCrossPath(t, "cs4236") }

// TestRigCoversDevices requires both rig tests above for every device of
// gen.Devices, so a device added to the registry cannot go unchecked.
func TestRigCoversDevices(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "diff_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tests := map[string]bool{}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok {
			tests[strings.ToLower(fn.Name.Name)] = true
		}
	}
	for _, d := range gen.Devices {
		for _, prefix := range []string{"testdifferential", "testsnapshotcrosspath"} {
			if !tests[prefix+d.Name] {
				t.Errorf("device %s has no %s test", d.Name, prefix)
			}
		}
	}
}

// bytesChooser draws choices from fuzz input: each takes as many bytes
// as n needs, and zero once the input is used up.
type bytesChooser []byte

func (b *bytesChooser) Intn(n int) int {
	var v uint64
	for span := uint64(1); span < uint64(n) && len(*b) > 0; span <<= 8 {
		v = v<<8 | uint64((*b)[0])
		*b = (*b)[1:]
	}
	return int(v % uint64(n))
}

// FuzzDifferential is the rig with its choices read from the fuzz input:
// the first byte selects the device, the rest the operations and values.
func FuzzDifferential(f *testing.F) {
	models := make([]*model, len(gen.Devices))
	for i, d := range gen.Devices {
		models[i] = newModel(f, d)
		seed := []byte{byte(i)}
		for k := 0; k < 64; k++ {
			seed = append(seed, byte(k*37+i*11))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := models[int(data[0])%len(models)]
		c := bytesChooser(data[1:])
		m.cross(t, m.run(t, 0, &c, min(len(c)/2, 256), map[*op]int{}))
	})
}

// checkCross asserts byte-identical driver snapshots across back ends and
// that each freshly built back end round-trips the other's blob. It
// returns the blob.
func checkCross(t *testing.T, genDev snap.Snapshotter, execDev *exec.Device, freshGen snap.Snapshotter, freshExec *exec.Device) []byte {
	t.Helper()
	gb, err := genDev.MarshalState(nil)
	if err != nil {
		t.Fatalf("compiled MarshalState: %v", err)
	}
	eb, err := execDev.MarshalState(nil)
	if err != nil {
		t.Fatalf("interpreted MarshalState: %v", err)
	}
	if !bytes.Equal(gb, eb) {
		t.Fatalf("cross-path snapshots differ:\ncompiled    %x\ninterpreted %x", gb, eb)
	}
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
	return gb
}

// rig is one device-under-test instance: a bus whose windows over a
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

// newRig attaches the operation collector to space.
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

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// execAccessors returns fatal-on-error Get/Set closures over an exec
// device.
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
