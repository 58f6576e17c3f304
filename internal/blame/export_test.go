package blame

import (
	"repro/internal/ir"
	"repro/internal/vm"
)

// Hooks for the external calibration tests (calibrate_test.go).

// CalibrationRuns counts the unmonitored runs actually executed.
var CalibrationRuns = &calibrationRuns

// UnmonitoredLen is the number of memoized unmonitored runs.
func UnmonitoredLen() int { return unmonitored.Len() }

// ResetUnmonitored empties the unmonitored-run memo.
func ResetUnmonitored() { unmonitored.Reset() }

// CalibrationKey is the memo key of a run shape.
func CalibrationKey(prog *ir.Program, cfg *vm.Config) any { return newCalibrationKey(prog, cfg) }
