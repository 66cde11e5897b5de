// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec 7) on the simulated 8-GPU machine: Table 1 (search time),
// Table 2 (weight sizes), Table 3 (RNN framework comparison), Figure 8
// (WResNet throughput), Figure 9 (RNN throughput), Figure 10 (partition
// algorithm quality) and Figure 11 (the WResNet-152-10 partition plan),
// plus ablation studies of the Sec 6 graph-generation optimizations. Each
// driver returns a rendered text artifact; the root-level benchmarks and
// cmd/tofu-bench print them.
package experiments

import (
	"fmt"
	"strings"

	"tofu/internal/topo"
)

// Driver is one artifact of tofu-bench's -exp flag: its name and its run.
type Driver struct {
	Name string
	Run  func() (string, error)
}

// Drivers lists every artifact driver in the order tofu-bench prints them,
// bound to o and the machine tp.
func Drivers(o Opts, tp topo.Topology) []Driver {
	return []Driver{
		{"table1", func() (string, error) { return Table1(o, tp) }},
		{"table2", func() (string, error) { return Table2(o) }},
		{"table3", func() (string, error) { return Table3(o, tp) }},
		{"fig8", func() (string, error) { return Figure8(o, tp) }},
		{"fig9", func() (string, error) { return Figure9(o, tp) }},
		{"fig10", func() (string, error) { return Figure10(o, tp) }},
		{"fig11", func() (string, error) { return Figure11(o) }},
		{"ablations", func() (string, error) { return Ablations(o, tp) }},
		{"crosstopo", func() (string, error) { return CrossTopology(o, tp) }},
		{"orderings", func() (string, error) { return Orderings(o, tp) }},
		{"hybrid", func() (string, error) { return Hybrid(o, tp) }},
	}
}

// table renders rows with aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, r := range t.rows {
		line(r)
	}
	return sb.String()
}

// bar renders a normalized throughput bar the way Figures 8/9 show them:
// filled blocks scaled to the ideal baseline, with the absolute value and
// OOM markers.
func bar(frac float64, label string, oom bool) string {
	if oom {
		return "OOM"
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*20 + 0.5)
	return fmt.Sprintf("%-20s %5.2f  %s", strings.Repeat("#", n), frac, label)
}

func gb(bytes float64) string { return fmt.Sprintf("%.1f", bytes/(1<<30)) }
