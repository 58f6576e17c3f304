package compile

import (
	"crypto/sha256"

	"repro/internal/memo"
)

// The experiment harness and the benchmark suite compile the same handful
// of embedded programs (LULESH variants, CLOMP, MiniMD, the PGAS
// stencils) dozens of times per run. Compilation is deterministic — the
// same (source, Options) pair always produces the same IR — and the
// Result is immutable once built (the VM keeps all run state in its own
// globals/frames), so results can be shared freely across callers and
// goroutines.

type sourceKey struct {
	name string
	hash [sha256.Size]byte
	opts Options
}

// compiled is a memoized compilation. A compile error is deterministic,
// so it is memoized with the result rather than returned to the memo.
type compiled struct {
	res *Result
	err error
}

var sources = memo.New[sourceKey, compiled]("compile")

// SourceCached compiles like Source but memoizes the result keyed by
// (name, hash of src, opts). Cache hits return the identical *Result;
// concurrent lookups of the same key compile exactly once (the losers
// block until the winner finishes). Errors are cached too: a source that
// failed to compile keeps failing without re-parsing.
func SourceCached(name, src string, opts Options) (*Result, error) {
	k := sourceKey{name: name, hash: sha256.Sum256([]byte(src)), opts: opts}
	c, err := sources.Get(k, func() (compiled, error) {
		res, err := Source(name, src, opts)
		return compiled{res, err}, nil
	})
	if err != nil {
		return nil, err
	}
	return c.res, c.err
}

// ResetCache drops all memoized compilations (tests).
func ResetCache() { sources.Reset() }
