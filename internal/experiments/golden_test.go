package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// writeRows prints one table's rows under its name, one %v line per row.
func writeRows[R any](t *testing.T, b *strings.Builder, name string, rows []R, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(b, "%s\n", name)
	for _, r := range rows {
		fmt.Fprintf(b, "%v\n", r)
	}
}

// TestTablesGolden pins the model numbers of Tables 2-6 exactly: every
// row is printed with %v, so floats appear at full precision, and the
// text must match testdata/tables.golden byte for byte. These are
// virtual-time figures, deterministic on any machine; only FarmRow.WallNS
// is wall time, and it is zeroed before printing. Table 1 (the mutation
// study) stays out: it takes seconds to run.
func TestTablesGolden(t *testing.T) {
	var b strings.Builder
	rows2, err := Table2Rows(64)
	writeRows(t, &b, "Table2Rows(64)", rows2, err)
	blocks, err := Table2BlockRows(64)
	writeRows(t, &b, "Table2BlockRows(64)", blocks, err)
	rows3, err := Table3Rows(20)
	writeRows(t, &b, "Table3Rows(20)", rows3, err)
	rows4, err := Table4Rows(20)
	writeRows(t, &b, "Table4Rows(20)", rows4, err)
	rows5, err := Table5Rows(4)
	writeRows(t, &b, "Table5Rows(4)", rows5, err)
	rows6, err := Table6Rows(12)
	for i := range rows6 {
		rows6[i].WallNS = 0
	}
	writeRows(t, &b, "Table6Rows(12)", rows6, err)

	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, lines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(lines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(lines) {
			w = lines[i]
		}
		if g != w {
			t.Fatalf("testdata/tables.golden line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
