package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestEventString(t *testing.T) {
	tests := []struct {
		e    Event
		want string
	}{
		// The port formats are pinned: the differential tests and the
		// examples assert on them verbatim.
		{Event{Kind: KindPortWrite, Addr: 2, Width: 8, Value: 0x40}, "out8[2]=0x40"},
		{Event{Kind: KindPortRead, Addr: 1, Width: 8, Value: 0x7f}, "in8[1]=0x7f"},
		{Event{Kind: KindBlockIn, Addr: 0, Width: 16, Units: 8}, "inblock16[0]x8"},
		{Event{Kind: KindBlockOut, Addr: 4, Width: 32, Units: 2}, "outblock32[4]x2"},
		{Event{Kind: KindFault, Addr: 9, Width: 16, Detail: "read"}, "fault16[9] read"},
		{Event{Kind: KindClockAdvance, Cost: 250}, "clock+250ns"},
		{Event{Kind: KindIRQRaise, Detail: "PI"}, "irq-raise PI"},
		{Event{Kind: KindDMATC}, "dma-tc"},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestEventBytes(t *testing.T) {
	if got := (Event{Kind: KindPortWrite, Width: 16}).Bytes(); got != 2 {
		t.Errorf("port write bytes = %d", got)
	}
	if got := (Event{Kind: KindBlockIn, Width: 16, Units: 8}).Bytes(); got != 16 {
		t.Errorf("block bytes = %d", got)
	}
	if got := (Event{Kind: KindIRQRaise}).Bytes(); got != 0 {
		t.Errorf("irq bytes = %d", got)
	}
}

func TestSpanDisabledIsFree(t *testing.T) {
	var sp Spans
	done := sp.Span("should.not.record")
	if got := sp.Current(); got != "" {
		t.Errorf("Current with tracking off = %q", got)
	}
	done()
}

func TestSpanNilHandleIsDisabled(t *testing.T) {
	var sp *Spans
	if sp.Enabled() {
		t.Fatal("nil Spans reports enabled")
	}
	sp.Span("ignored")() // must not panic
	if got := sp.Current(); got != "" {
		t.Errorf("nil Current = %q", got)
	}
	sp.With("ignored", func() {})
}

func TestSpanNesting(t *testing.T) {
	var sp Spans
	sp.Enable()
	defer sp.Disable()
	if got := sp.Current(); got != "" {
		t.Errorf("Current before any span = %q", got)
	}
	pop1 := sp.Span("play.isr")
	if got := sp.Current(); got != "play.isr" {
		t.Errorf("Current = %q", got)
	}
	pop2 := sp.Span("cs4236.pfmt.set")
	if got := sp.Current(); got != "play.isr/cs4236.pfmt.set" {
		t.Errorf("nested Current = %q", got)
	}
	pop2()
	if got := sp.Current(); got != "play.isr" {
		t.Errorf("Current after inner pop = %q", got)
	}
	pop1()
	if got := sp.Current(); got != "" {
		t.Errorf("Current after outer pop = %q", got)
	}
}

// TestSpanPerHost replaces the old per-goroutine attribution test: each
// host owns its own Spans value, so concurrent hosts can never observe
// each other's stacks, and enabling one host costs the others nothing.
func TestSpanPerHost(t *testing.T) {
	const hosts = 8
	var wg sync.WaitGroup
	errs := make(chan string, hosts)
	for i := 0; i < hosts; i++ {
		wg.Add(1)
		name := string(rune('a' + i))
		sp := new(Spans)
		sp.Enable()
		go func() {
			defer wg.Done()
			defer sp.Span("host." + name)()
			for j := 0; j < 100; j++ {
				if got := sp.Current(); got != "host."+name {
					errs <- got
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Errorf("host saw foreign span %q", got)
	}
}

// TestSpanUnobservedHostIsIsolated pins the bugfix for the old
// process-global tracking: enabling spans on one host must not turn on
// recording for a different host's Spans value.
func TestSpanUnobservedHostIsIsolated(t *testing.T) {
	observed, idle := new(Spans), new(Spans)
	observed.Enable()
	defer observed.Disable()
	defer observed.Span("obs.phase")()
	if idle.Enabled() {
		t.Fatal("enabling one host enabled another")
	}
	idle.Span("idle.phase")()
	if got := idle.Current(); got != "" {
		t.Errorf("unobserved host recorded %q", got)
	}
	if got := observed.Current(); got != "obs.phase" {
		t.Errorf("observed host lost its span: %q", got)
	}
}

func TestSpanDisableUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Disable without Enable did not panic")
		}
	}()
	new(Spans).Disable()
}

func TestWithSpan(t *testing.T) {
	var sp Spans
	sp.Enable()
	defer sp.Disable()
	var inside string
	sp.With("init", func() { inside = sp.Current() })
	if inside != "init" {
		t.Errorf("With Current = %q", inside)
	}
	if got := sp.Current(); got != "" {
		t.Errorf("Current after With = %q", got)
	}
}

func TestRingWraps(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Observe(Event{TS: uint64(i)})
	}
	ev := r.Events()
	if len(ev) != 3 || r.Len() != 3 {
		t.Fatalf("len = %d/%d", len(ev), r.Len())
	}
	if ev[0].TS != 2 || ev[1].TS != 3 || ev[2].TS != 4 {
		t.Errorf("events = %v", ev)
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped = %d", r.Dropped())
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Errorf("reset left %d/%d", r.Len(), r.Dropped())
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Observe(Event{Kind: KindMark})
			}
		}()
	}
	wg.Wait()
	if r.Len() != 64 || r.Dropped() != 4*1000-64 {
		t.Errorf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
}

func TestMetrics(t *testing.T) {
	m := NewMetrics()
	m.Observe(Event{Kind: KindPortWrite, Source: "cs4236", Span: "init/cs4236.cfmt.set", Width: 8, Cost: 100})
	m.Observe(Event{Kind: KindPortWrite, Source: "cs4236", Span: "init/cs4236.cfmt.set", Width: 8, Cost: 100})
	m.Observe(Event{Kind: KindBlockOut, Source: "dma8237", Span: "play.arm", Width: 16, Units: 4, Cost: 500})
	m.Observe(Event{Kind: KindIRQRaise, Source: "pic8259", Span: "play.isr"})
	rows := m.Snapshot()
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	// Sorted by VirtNS: dma (500) first.
	if rows[0].Source != "dma8237" || rows[0].Ops != 1 || rows[0].Bytes != 8 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[1].Source != "cs4236" || rows[1].Ops != 2 || rows[1].VirtNS != 200 || rows[1].Bytes != 2 {
		t.Errorf("row 1 = %+v", rows[1])
	}
	if rows[2].Source != "pic8259" || rows[2].Ops != 0 || rows[2].Events != 1 {
		t.Errorf("row 2 = %+v", rows[2])
	}
	// 100ns lands in bucket [64,127]... bits.Len64(100)=7.
	if rows[1].Hist[7] != 2 {
		t.Errorf("hist = %v", rows[1].Hist)
	}
	m.Reset()
	if len(m.Snapshot()) != 0 {
		t.Error("reset left rows")
	}
}

func TestCostBucket(t *testing.T) {
	tests := []struct {
		cost uint64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {1 << 62, HistBuckets - 1}}
	for _, tt := range tests {
		if got := costBucket(tt.cost); got != tt.want {
			t.Errorf("costBucket(%d) = %d, want %d", tt.cost, got, tt.want)
		}
	}
	if got := BucketLabel(8); got != "128-255ns" {
		t.Errorf("BucketLabel(8) = %q", got)
	}
}

func TestPhaseOf(t *testing.T) {
	tests := []struct{ span, want string }{
		{"", ""},
		{"init", "init"},
		{"play.isr", "play.isr"},
		{"play.isr/cs4236.pfmt.set", "play.isr"},
		{"play/arm/dma8237.mode.set", "play/arm"},
		{"cs4236.pfmt.set", ""},
	}
	for _, tt := range tests {
		if got := PhaseOf(tt.span); got != tt.want {
			t.Errorf("PhaseOf(%q) = %q, want %q", tt.span, got, tt.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{
		{Kind: KindPortWrite, Span: "init/cs4236.cfmt.set", Width: 8, Cost: 100},
		{Kind: KindPortWrite, Span: "init/cs4236.cfmt.set", Width: 8, Cost: 100},
		{Kind: KindPortRead, Span: "play.isr/dma8237.status.get", Width: 8, Cost: 100},
		{Kind: KindClockAdvance, Span: "", Cost: 11200},
	}
	top := Summarize(events)
	if len(top) != 3 {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Span != "init/cs4236.cfmt.set" || top[0].Ops != 2 {
		t.Errorf("top[0] = %+v", top[0])
	}
	byPhase := SummarizeBy(events, func(e Event) string { return PhaseOf(e.Span) })
	if len(byPhase) != 3 {
		t.Fatalf("byPhase = %+v", byPhase)
	}
	for _, s := range byPhase {
		switch s.Span {
		case "init":
			if s.Ops != 2 {
				t.Errorf("init ops = %d", s.Ops)
			}
		case "play.isr":
			if s.Ops != 1 {
				t.Errorf("isr ops = %d", s.Ops)
			}
		}
	}
}

func TestMulti(t *testing.T) {
	var a, b []Event
	m := Multi(Func(func(e Event) { a = append(a, e) }), nil, Func(func(e Event) { b = append(b, e) }))
	m.Observe(Event{Kind: KindMark})
	if len(a) != 1 || len(b) != 1 {
		t.Errorf("fanout = %d/%d", len(a), len(b))
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	events := []Event{
		{TS: 100, Cost: 100, Kind: KindPortWrite, Source: "cs4236", Span: "init/cs4236.cfmt.set", Addr: 1, Width: 8, Value: 0x40},
		{TS: 200, Cost: 100, Kind: KindPortRead, Source: "dma8237", Span: "play.isr/dma8237.status.get", Addr: 8, Width: 8, Value: 1},
		// Instant emitted inside the handler of the op completing at 200:
		// appears earlier in the stream but must not break monotonic ts.
		{TS: 200, Kind: KindIRQRaise, Source: "pic8259", Detail: "irq5"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes(), "cs4236", "dma8237", "pic8259"); err != nil {
		t.Fatalf("exported trace fails validation: %v\n%s", err, buf.String())
	}
	if err := ValidateChromeTrace(buf.Bytes(), "ne2000"); err == nil {
		t.Error("validation accepted a missing required track")
	}
	if !strings.Contains(buf.String(), `"devil virtual machine"`) {
		t.Error("process_name metadata missing")
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	if err := ValidateChromeTrace([]byte("{")); err == nil {
		t.Error("accepted malformed JSON")
	}
	if err := ValidateChromeTrace([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Error("accepted empty trace")
	}
	bad := `{"traceEvents":[
	 {"name":"a","ph":"X","ts":5,"pid":1,"tid":1},
	 {"name":"b","ph":"X","ts":4,"pid":1,"tid":1}]}`
	if err := ValidateChromeTrace([]byte(bad)); err == nil {
		t.Error("accepted non-monotonic ts")
	}
}
