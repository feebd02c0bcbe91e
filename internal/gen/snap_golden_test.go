package gen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"testing"

	"repro/internal/bus"
	"repro/internal/gen"
	"repro/internal/snap"
)

// The golden snapshot hashes pin the wire format itself. The round-trip
// tests and the differential rig compare a component with itself or with
// its other back end, so a refactor that changes both sides of a MarshalState /
// UnmarshalState pair consistently passes them; these SHA-256 values,
// taken from fixed seeded sequences, fail on any changed byte.

// simGolden is keyed by gen.Devices name: the simulator after
// driveRandom(seed 1, 200 accesses).
var simGolden = map[string]string{
	"busmouse":  "8ae1c21acade2b206f9882058de24f1f5b9b5f2ec19bb88c5a526abe0641baa2",
	"cs4236":    "73cfa8129475e78957b6bcae8041455269fa2a34573e17045c76adb35bca99d6",
	"dma8237":   "212cfe79b466a7eadd7a1f0532376c4e923a203085697a60c0b2950a6927b8a4",
	"ide":       "9b5f2cf06ec34dc7bafbbc85c5aac15eda3bb0cc0363204f571b2b633da0ed9a",
	"ne2000":    "f3383db51c7c4763cce59305ce38f9f8690b7c8629cc1ed16c814ee2e8384521",
	"permedia2": "835c53db3eef9a87a7b5f81da9d56ecb69a8bb050c6c15c3fbb330a7726bd1b8",
	"pic8259":   "a908189f2c76f4b912b1f576418a04d72bbb4c82085699ed7ea916bdb0169994",
	"piix4":     "4f4ab3a157b72b0ed09056e72896d27d8160bf46c54f23b9d51989a505b0d93e",
}

// stubGolden is keyed by optimization level (the stubs' layout follows
// it) and then by stub blob name: the compiled stub after the rig's
// goldenSeed sequence (TestSnapshotCrossPath*).
var stubGolden = map[string]map[string]string{
	"O1": {
		"cs4236":            "03ea4012b590c314189578a8bb11f765f8c4f5adb0b6ffda3f842d50e1b06931",
		"dma8237":           "606d65c272b73b60e176822bca9e9b690cb28fea4d03092a39e124e2fbd35c18",
		"ide_disk":          "7983e7b19a45ce95fd97c08a1ecaf4fb669243a260e550f888221b84fb9ffd00",
		"logitech_busmouse": "b48ba60e809b0c7c37ba85ff18a9d5c368aadfe36f7c0eff3964a923dc436d78",
		"ne2000":            "32858f2b7e85d315fad24fad91dcfa90ecbf636b9f34ac03ada35841f634557b",
		"permedia2":         "9b964e809ae85b26cf77c09b2a7aee3563d4d5e1c10cef4d77238ef166ba1f1f",
		"pic8259":           "8095cc75247ea1895a8724da857238884202b4d79b420ea34342b78570dbee38",
		"piix4_busmaster":   "2135760021db8668d464c836315f36467443b4d760793f3f5e8c5bf9568a7a00",
	},
	"O0": {
		"cs4236":            "be50f7df1b87f76b488daed2a76207df24dbc510a2c3dac6baf9db7ffbe9e512",
		"dma8237":           "606d65c272b73b60e176822bca9e9b690cb28fea4d03092a39e124e2fbd35c18",
		"ide_disk":          "8194cedd629f839ce11a4ea2e162e909c171e906c0ac1694f5db57ebacdf927d",
		"logitech_busmouse": "b48ba60e809b0c7c37ba85ff18a9d5c368aadfe36f7c0eff3964a923dc436d78",
		"ne2000":            "8382f1c3f9e0ede94b6f9034474374fa0c57b0f5c174693dbd6dc536cf490a9c",
		"permedia2":         "9b964e809ae85b26cf77c09b2a7aee3563d4d5e1c10cef4d77238ef166ba1f1f",
		"pic8259":           "8095cc75247ea1895a8724da857238884202b4d79b420ea34342b78570dbee38",
		"piix4_busmaster":   "2135760021db8668d464c836315f36467443b4d760793f3f5e8c5bf9568a7a00",
	},
}

// checkGolden compares blob's SHA-256 with golden[key].
func checkGolden(t *testing.T, golden map[string]string, key string, blob []byte) {
	t.Helper()
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); golden[key] != got {
		t.Errorf("%s: snapshot sha256 %s, want %s: the wire format changed", key, got, golden[key])
	}
}

// checkStubGolden pins a compiled stub's blob at the level the checked-in
// stubs were generated at (see execOpts).
func checkStubGolden(t *testing.T, blob []byte) {
	t.Helper()
	h, _, _, err := snap.ReadHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	level := "O1"
	if os.Getenv("DEVIL_STUBS_OPT") == "0" {
		level = "O0"
	}
	checkGolden(t, stubGolden[level], h.Name, blob)
}

func TestSimSnapshotGolden(t *testing.T) {
	for _, d := range gen.Devices {
		var clk bus.Clock
		space := newDeviceSpace(&clk, d)
		dev := d.NewSim(&clk, space)
		driveRandom(space, d, rand.New(rand.NewSource(1)), 200)
		blob, err := dev.MarshalState(nil)
		if err != nil {
			t.Fatalf("%s: MarshalState: %v", d.Name, err)
		}
		checkGolden(t, simGolden, d.Name, blob)
	}
}
