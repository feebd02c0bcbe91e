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
// and cross-path tests compare a component with itself or with its other
// back end, so a refactor that changes both sides of a MarshalState /
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
// it) and then by stub blob name: the compiled stub after its
// TestSnapshotCrossPath* sequence.
var stubGolden = map[string]map[string]string{
	"O1": {
		"cs4236":            "ebae9c9443cccdb9155df596ab38f31acd8b04c0845771b5d219e73a6cdd863b",
		"dma8237":           "db9805c4044cc0818015baaa469b3be7b868ee832b3c0ef4c052edebd5c182d7",
		"ide_disk":          "0cfbc22936824e3d1f74ab04922807edebec50279a868480740de027620054ed",
		"logitech_busmouse": "4f07c94a464978be90b01fc9e46d51a5a2b5f25be0a0205a310c0ad1034f24b5",
		"ne2000":            "e26909f63493e60c1c4210ed6797e91d57bf56d566374fcec2fbf3c0db1047ac",
		"permedia2":         "e3a2c76f1d71f9cf912641e5ed0923f9572302dbe7466f8a5dd24ce1218ae00c",
		"pic8259":           "d181772c760088d0fd4e467e321d4f7ef2ce06aa908a1c6501acec50a1f524d6",
		"piix4_busmaster":   "433f3fde33a28d880301e92b48381c1a8b087d6dbb00760dc41da23e0d19dcc6",
	},
	"O0": {
		"cs4236":            "4b731882de8aba6a792bc7ee3c42c266dca48a3f0ce6e990a9f2d91a84a28c50",
		"dma8237":           "db9805c4044cc0818015baaa469b3be7b868ee832b3c0ef4c052edebd5c182d7",
		"ide_disk":          "d6b9c2be831aca58fb2d12f60d577f17866e399e721c34476e4869669ee08d6b",
		"logitech_busmouse": "4f07c94a464978be90b01fc9e46d51a5a2b5f25be0a0205a310c0ad1034f24b5",
		"ne2000":            "8382f1c3f9e0ede94b6f9034474374fa0c57b0f5c174693dbd6dc536cf490a9c",
		"permedia2":         "e3a2c76f1d71f9cf912641e5ed0923f9572302dbe7466f8a5dd24ce1218ae00c",
		"pic8259":           "d181772c760088d0fd4e467e321d4f7ef2ce06aa908a1c6501acec50a1f524d6",
		"piix4_busmaster":   "433f3fde33a28d880301e92b48381c1a8b087d6dbb00760dc41da23e0d19dcc6",
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
