package core

import (
	"repro/internal/ir"
	"repro/internal/memo"
)

// Static blame analysis is a pure function of (program, options), and an
// Analysis is read-only once built (the union-find is fully path-
// compressed at the end of Analyze, so even lookups no longer write).
// The profiler, the diagnostics passes and every experiment driver can
// therefore share one Analysis per program instead of re-running the
// slice fixpoint — the dominant static cost on LULESH.

type analyzeKey struct {
	prog *ir.Program
	opts Options
}

var analyses = memo.New[analyzeKey, *Analysis]("core")

// AnalyzeCached memoizes Analyze keyed by (program identity, options).
// Cache hits return the identical *Analysis; concurrent lookups of the
// same key analyze exactly once.
func AnalyzeCached(prog *ir.Program, opts Options) *Analysis {
	an, _ := analyses.Get(analyzeKey{prog: prog, opts: opts}, func() (*Analysis, error) {
		return Analyze(prog, opts), nil
	})
	return an
}

// ResetCache drops all memoized analyses (tests).
func ResetCache() { analyses.Reset() }
