// Package exp is the evaluation harness: one function per table/figure of
// the paper's §V, each regenerating the same rows/series from the
// MiniChapel ports running on the simulated substrate. Absolute numbers
// differ from the paper's Xeon testbed by design; the harness reports the
// paper's values side by side so the shape (rankings, winners, crossover
// points) can be compared directly. EXPERIMENTS.md records the outcomes.
package exp

import (
	"fmt"
	"strings"

	"repro/internal/benchprog"
	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/postmortem"
	"repro/internal/serve"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Cell looks up a row by its first column and returns column col.
func (t *Table) Cell(rowKey string, col int) (string, bool) {
	for _, r := range t.Rows {
		if len(r) > col && r[0] == rowKey {
			return r[col], true
		}
	}
	return "", false
}

// timeProgram compiles and times one benchmark program: one unmonitored
// run under the default experiment config (12 cores, 1 locale, 2.53 GHz
// — the paper's testbed). The run is memoized by serve.Unmonitored, so
// one run per (program, fast, configs) serves every table that needs it,
// and the calibration of that program's profile too.
func timeProgram(p benchprog.Program, fast bool, cfgs map[string]string) (float64, error) {
	res, err := p.Compile(compile.Options{Fast: fast})
	if err != nil {
		return 0, err
	}
	cfg := (&serve.Request{Configs: cfgs}).VMConfig(res.Prog)
	st, err := serve.Unmonitored(res.Prog, cfg)
	if err != nil {
		return 0, err
	}
	return st.Seconds(), nil
}

// profileProgram runs the full blame pipeline on a benchmark with an
// auto-scaled sampling threshold (the paper's fixed large prime assumes
// multi-second runs; we target a few thousand samples). Results are
// memoized per (program, configs): the *blame.Result (profile, analysis,
// sampler) is read-only for every consumer, so the LULESH profile runs
// once and feeds Fig4, Table6, Table8, the baseline and the overhead
// tables.
func profileProgram(p benchprog.Program, cfgs map[string]string) (*blame.Result, error) {
	return profMemo.Get(profKey{p.Name, cfgKey(cfgs)}, func() (*blame.Result, error) {
		res, err := p.Compile(compile.Options{})
		if err != nil {
			return nil, err
		}
		bc := blame.DefaultConfig()
		bc.VM = (&serve.Request{Configs: cfgs}).VMConfig(res.Prog)
		bc.Threshold = 0 // auto-scale, as the CLI does
		return serve.Profile(res.Prog, &bc, nil, nil)
	})
}

// blameRow formats a data-centric profile row for a table.
func blameRow(prof *postmortem.Profile, name, paperPct string) []string {
	r, ok := prof.Row(name)
	if !ok {
		return []string{name, "-", "(missing)", paperPct, "-"}
	}
	return []string{name, r.Type, fmt.Sprintf("%.1f%%", r.Blame*100), paperPct, r.Context}
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

func secs(x float64) string { return fmt.Sprintf("%.4f", x) }

func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", a/b)
}
