package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	snddrv "repro/internal/drivers/sound"
	"repro/internal/obs"
)

func soundSpec(v Variant) WorkloadSpec {
	return WorkloadSpec{
		Kind: Sound, Variant: v,
		Sound: snddrv.Config{Rate: 22050, RingBytes: 512}, Revs: 4,
	}
}

// TestHostSnapshotMidDMA is the acceptance test for checkpoint/restore: a
// sound host suspended mid-stream — after two of four ring revolutions,
// i.e. between two terminal-count interrupts of the 8237 while the ring
// is live and PEN is on — must restore into a fresh Host that produces
// the bit-identical remainder of the attributed event stream and the
// identical final Result, for both driver variants.
func TestHostSnapshotMidDMA(t *testing.T) {
	for _, v := range []Variant{Hand, Devil} {
		t.Run(v.String(), func(t *testing.T) {
			// Uninterrupted reference run, fully observed.
			soloRing := obs.NewRing(1 << 16)
			solo := New("dma", soundSpec(v))
			solo.Observe(soloRing)
			want := solo.Run()
			if want.Err != nil {
				t.Fatalf("solo run: %v", want.Err)
			}

			// Twin host, suspended between rev2 and rev3.
			preRing := obs.NewRing(1 << 16)
			h := New("dma", soundSpec(v))
			h.Observe(preRing)
			for h.Pos() < 4 {
				if _, err := h.StepOnce(); err != nil {
					t.Fatalf("step %s: %v", h.StepName(h.Pos()), err)
				}
			}
			if name := h.StepName(h.Pos()); name != "rev3" {
				t.Fatalf("suspended before %q, want rev3", name)
			}
			blob, err := h.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}

			// Restore into a fresh machine and finish there.
			restored, err := RestoreHost(blob)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if again, err := restored.Snapshot(); err != nil {
				t.Fatalf("re-snapshot: %v", err)
			} else if !bytes.Equal(again, blob) {
				t.Fatalf("restore is lossy: re-snapshot differs from original blob")
			}
			postRing := obs.NewRing(1 << 16)
			restored.Observe(postRing)
			got := restored.Run()
			if got.Err != nil {
				t.Fatalf("restored run: %v", got.Err)
			}

			if !reflect.DeepEqual(got, want) {
				t.Errorf("restored Result %+v != solo %+v", got, want)
			}
			stream := append(preRing.Events(), postRing.Events()...)
			if !reflect.DeepEqual(stream, soloRing.Events()) {
				t.Errorf("spliced event stream (%d pre + %d post events) != solo stream (%d events)",
					len(preRing.Events()), len(postRing.Events()), len(soloRing.Events()))
			}
			// Fully observed: the engines' events are in the streams, and
			// in the restored part, so the comparison covers engine state.
			for name, ev := range map[string][]obs.Event{"spliced": stream, "solo": soloRing.Events(), "restored": postRing.Events()} {
				seen := map[obs.Kind]bool{}
				for _, e := range ev {
					seen[e.Kind] = true
				}
				for _, k := range []obs.Kind{obs.KindDMATC, obs.KindIRQRaise, obs.KindIRQConsume, obs.KindClockAdvance} {
					if !seen[k] {
						t.Errorf("%s stream has no %s event", name, k)
					}
				}
			}
		})
	}
}

// TestHostSnapshotRoundTrip snapshots every workload kind at every step
// boundary and checks the restored host finishes with the solo Result.
func TestHostSnapshotRoundTrip(t *testing.T) {
	specs := []WorkloadSpec{
		{Kind: IDE, Variant: Hand, Sectors: 16},
		{Kind: IDE, Variant: Devil, Sectors: 16},
		{Kind: Gfx, Variant: Hand, Size: 16, Rects: 4},
		{Kind: Gfx, Variant: Devil, Size: 16, Rects: 4},
		soundSpec(Hand),
		soundSpec(Devil),
	}
	for _, spec := range specs {
		name := spec.Kind.String() + "-" + spec.Variant.String()
		t.Run(name, func(t *testing.T) {
			want := New(name, spec).Run()
			if want.Err != nil {
				t.Fatalf("solo run: %v", want.Err)
			}
			steps := New(name, spec).Steps()
			for cut := 0; cut <= steps; cut++ {
				// twin runs straight through; h is snapshotted and
				// restored at the cut. Snapshot/restore must be
				// transparent: both finish with the same Result.
				twin := New(name, spec)
				h := New(name, spec)
				for h.Pos() < cut {
					if _, err := h.StepOnce(); err != nil {
						t.Fatalf("cut %d, step %s: %v", cut, h.StepName(h.Pos()), err)
					}
					if _, err := twin.StepOnce(); err != nil {
						t.Fatalf("cut %d: twin: %v", cut, err)
					}
				}
				blob, err := h.Snapshot()
				if err != nil {
					t.Fatalf("cut %d: snapshot: %v", cut, err)
				}
				restored, err := RestoreHost(blob)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				if restored.Pos() != cut || restored.Name != name {
					t.Fatalf("cut %d: restored at pos %d as %q", cut, restored.Pos(), restored.Name)
				}
				got, ref := restored.Run(), twin.Run()
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("cut %d: restored Result %+v != twin %+v", cut, got, ref)
				}
				// Mid-workload restores also match the uninterrupted
				// fresh run. (A host restored at the very end re-runs on
				// warm device state — stub shadow registers may elide
				// writes a cold machine issues — so only the twin
				// comparison applies there.)
				if cut < steps && !reflect.DeepEqual(got, want) {
					t.Errorf("cut %d: restored Result %+v != solo %+v", cut, got, want)
				}
			}
		})
	}
}

// TestRestoreHostRejectsCorruption feeds RestoreHost truncations and
// bit-flips of a valid snapshot: every outcome must be a clean error or a
// clean success, never a panic or an oversized allocation.
func TestRestoreHostRejectsCorruption(t *testing.T) {
	h := New("victim", soundSpec(Devil))
	for h.Pos() < 3 {
		if _, err := h.StepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := RestoreHost(nil); err == nil {
		t.Error("RestoreHost(nil) succeeded")
	}
	for cut := 0; cut < len(blob); cut += 1 + len(blob)/97 {
		if _, err := RestoreHost(blob[:cut]); err == nil {
			t.Errorf("truncation to %d bytes restored successfully", cut)
		}
	}
	for off := 0; off < len(blob); off += 1 + len(blob)/211 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0xa5
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("bit flip at %d: RestoreHost panicked: %v", off, r)
				}
			}()
			_, _ = RestoreHost(mut) // must not panic; error or not is fine
		}()
	}
}

// TestRestoreHostRejectsOversizedSpec checks the workload-size cap: a
// snapshot declaring an absurd workload must be refused before any
// allocation happens.
func TestRestoreHostRejectsOversizedSpec(t *testing.T) {
	h := New("big", WorkloadSpec{Kind: IDE, Variant: Hand, Sectors: specCap + 1})
	if _, err := h.Snapshot(); err != nil {
		t.Fatal(err)
	}
	blob, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreHost(blob); err == nil {
		t.Error("RestoreHost accepted a spec beyond the size cap")
	}
}

// hostGolden pins the host wire format: the SHA-256 of each DefaultFleet
// workload family's snapshot, per variant, suspended halfway through its
// steps. Round trips only compare a host with itself; these values fail
// on any changed byte.
var hostGolden = map[string]string{
	"ide-hand-0":  "326908d70434249e56b0b27a3977fb224c089175faba51efe7f29331857a9887",
	"gfx-hand-1":  "cb42836bb0df93300414fe3de1475c4d5c7c67eb0e4b5c4176703e4039ebb918",
	"snd-hand-2":  "b82cad88b93ad61e58826fd9d97a86a865136dcb491a30d7b67c4d13a7b40608",
	"ide-devil-0": "9434264586bbbc00256b4214e49a73d7b8361e76af9d0bb67413dffa714aaa72",
	"gfx-devil-1": "fe8d1fd35837c10da3dba13d4c2c8eb310e04e6a0ce0b443303c72f908959163",
	"snd-devil-2": "a7f46f8507dd28a49851758d4b3fb4fbac1a3fc8d75dba0773df84b95d550fe8",
}

func TestHostSnapshotGolden(t *testing.T) {
	for _, v := range []Variant{Hand, Devil} {
		for _, h := range DefaultFleet(3, v) {
			for h.Pos() < h.Steps()/2 {
				if _, err := h.StepOnce(); err != nil {
					t.Fatalf("%s: step %s: %v", h.Name, h.StepName(h.Pos()), err)
				}
			}
			blob, err := h.Snapshot()
			if err != nil {
				t.Fatalf("%s: snapshot: %v", h.Name, err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); hostGolden[h.Name] != got {
				t.Errorf("%s: snapshot sha256 %s, want %s: the wire format changed", h.Name, got, hostGolden[h.Name])
			}
		}
	}
}
