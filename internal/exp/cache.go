package exp

import (
	"sort"
	"strings"

	"repro/internal/analyze"
	"repro/internal/blame"
	"repro/internal/ir"
	"repro/internal/memo"
)

// The table functions re-derive the same deterministic quantities many
// times: profileProgram(LULESH original) alone backs Fig4, Table6,
// Table8's first column, the baseline comparison and the overhead table.
// Every VM run here is bit-reproducible (fixed scheduler, fixed cost
// model, no host time), so run results are pure functions of
// (program, config) and safe to share — including across the parallel
// suite driver's goroutines. Unmonitored timing runs share
// serve.Unmonitored's memo with the profiles' calibration runs.

// cfgKey canonicalizes a config-const override map for cache keys.
func cfgKey(cfgs map[string]string) string {
	if len(cfgs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(cfgs))
	for k := range cfgs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(cfgs[k])
		b.WriteByte(';')
	}
	return b.String()
}

type profKey struct {
	name string
	cfgs string
}

var (
	profMemo   = memo.New[profKey, *blame.Result]("exp.profile")
	reportMemo = memo.New[*ir.Program, *analyze.Report]("exp.report")
)

// analysisReport memoizes the default diagnostics report per program
// (reports are immutable once built).
func analysisReport(prog *ir.Program) *analyze.Report {
	rep, _ := reportMemo.Get(prog, func() (*analyze.Report, error) {
		return analyze.Run(prog), nil
	})
	return rep
}

// ResetMemos drops all experiment-level caches (tests).
func ResetMemos() {
	profMemo.Reset()
	reportMemo.Reset()
}
