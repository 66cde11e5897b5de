package experiments

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"tofu/internal/topo"
)

// goldenPath holds every quick artifact as tofu-bench -quick -parallel 1
// prints it, with each "[name completed in ...]" line cut to "[name]" and
// the wall-clock cells masked (maskWallClock).
const goldenPath = "testdata/quick.golden"

// quickDrivers binds every driver to the quick sweep on the default 8-GPU
// machine. Table 1's flat-DP row spends its whole budget, and the row is
// masked, so a small budget keeps the run short without moving a byte.
func quickDrivers(par int) []Driver {
	return Drivers(Opts{Quick: true, FlatBudget: 100 * time.Millisecond, Parallelism: par}, topo.DefaultTopology())
}

// render runs the drivers and prints them the way tofu-bench does, each
// artifact followed by its "[name]" line, with the wall clock masked.
func render(t *testing.T, drivers []Driver) string {
	t.Helper()
	var sb strings.Builder
	for _, d := range drivers {
		out, err := d.Run()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		fmt.Fprintf(&sb, "%s\n[%s]\n\n", out, d.Name)
	}
	return maskWallClock(sb.String())
}

// TestPaperArtifactsPinned holds every quick artifact to the golden file,
// byte for byte outside the wall-clock cells, serially and on four workers.
// To re-record after a deliberate change, copy the masked output this test
// logs on a mismatch into testdata/quick.golden.
func TestPaperArtifactsPinned(t *testing.T) {
	want := readGolden(t)
	for _, par := range []int{1, 4} {
		if got := render(t, quickDrivers(par)); got != want {
			line, g, w := firstDiff(got, want)
			t.Errorf("parallelism %d: artifacts differ from %s at line %d:\n got: %q\nwant: %q", par, goldenPath, line, g, w)
			t.Logf("masked output at parallelism %d:\n%s", par, got)
		}
	}
}

// The per-artifact tests check one section of the golden file each, so a
// mismatch names the artifact that moved.
func TestTable1Quick(t *testing.T)        { pinArtifact(t, "table1") }
func TestTable2Quick(t *testing.T)        { pinArtifact(t, "table2") }
func TestTable3Quick(t *testing.T)        { pinArtifact(t, "table3") }
func TestFigure8Quick(t *testing.T)       { pinArtifact(t, "fig8") }
func TestFigure9Quick(t *testing.T)       { pinArtifact(t, "fig9") }
func TestFigure10Quick(t *testing.T)      { pinArtifact(t, "fig10") }
func TestFigure11Quick(t *testing.T)      { pinArtifact(t, "fig11") }
func TestAblationsQuick(t *testing.T)     { pinArtifact(t, "ablations") }
func TestCrossTopologyQuick(t *testing.T) { pinArtifact(t, "crosstopo") }
func TestHybridQuick(t *testing.T)        { pinArtifact(t, "hybrid") }

var sectionEnd = regexp.MustCompile(`(?m)^\[(\w+)\]\n\n`)

// pinArtifact runs one driver serially and compares it with its section of
// the golden file: the text after the previous "[name]" line through its own.
func pinArtifact(t *testing.T, name string) {
	golden := readGolden(t)
	var want string
	start := 0
	for _, m := range sectionEnd.FindAllStringSubmatchIndex(golden, -1) {
		if golden[m[2]:m[3]] == name {
			want = golden[start:m[1]]
		}
		start = m[1]
	}
	for _, d := range quickDrivers(1) {
		if d.Name != name {
			continue
		}
		if got := render(t, []Driver{d}); got != want {
			line, g, w := firstDiff(got, want)
			t.Errorf("%s differs from its section of %s at line %d:\n got: %q\nwant: %q", name, goldenPath, line, g, w)
		}
		return
	}
	t.Fatalf("no driver %q", name)
}

func readGolden(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// firstDiff returns the 1-based number of the first line where got and want
// differ, and that line of each ("" past the end).
func firstDiff(got, want string) (int, string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			at := func(ls []string) string {
				if i < len(ls) {
					return ls[i]
				}
				return ""
			}
			return i + 1, at(g), at(w)
		}
	}
}

// The wall-clock cells: Table 1's timed rows, the engine times of the
// ordering table and the hybrid search time.
var (
	timedRows    = map[string]bool{"DP with coarsening": true, "Using recursion (Tofu)": true}
	timedColumns = map[string]bool{"b&b": true, "flat enum": true, "speedup": true, "search": true}
	ruleLine     = regexp.MustCompile(`^-+(  -+)*$`)
	dashRun      = regexp.MustCompile(`-+`)
)

// maskWallClock replaces every wall-clock cell of out's tables with "~" and
// re-renders each table it touched, so that table's padding follows the
// masked cells rather than the timing text.
func maskWallClock(out string) string {
	lines := strings.Split(out, "\n")
	var res []string
	for i := 0; i < len(lines); i++ {
		if i+1 >= len(lines) || !ruleLine.MatchString(lines[i+1]) {
			res = append(res, lines[i])
			continue
		}
		// A table: header, rule, rows up to the first blank line. The rule's
		// dash runs are the column spans.
		var spans [][2]int
		for _, m := range dashRun.FindAllStringIndex(lines[i+1], -1) {
			spans = append(spans, [2]int{m[0], m[1]})
		}
		cells := func(line string) []string {
			cs := make([]string, len(spans))
			for j, sp := range spans {
				if sp[0] < len(line) {
					cs[j] = strings.TrimRight(line[sp[0]:min(sp[1], len(line))], " ")
				}
			}
			return cs
		}
		tab := &table{header: cells(lines[i])}
		end := i + 2
		for ; end < len(lines) && lines[end] != ""; end++ {
			tab.add(cells(lines[end])...)
		}
		masked := false
		for _, r := range tab.rows {
			for j := range r {
				if (j > 0 && timedRows[r[0]]) || timedColumns[tab.header[j]] {
					r[j], masked = "~", true
				}
			}
		}
		if !masked {
			res = append(res, lines[i:end]...)
		} else {
			res = append(res, strings.Split(strings.TrimSuffix(tab.String(), "\n"), "\n")...)
		}
		i = end - 1
	}
	return strings.Join(res, "\n")
}
