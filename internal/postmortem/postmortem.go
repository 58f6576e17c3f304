// Package postmortem implements step 3 of the paper's pipeline: it takes
// the raw context-sensitive samples (address vectors), converts addresses
// to functions/files/lines via the program's debug information, glues
// worker-thread post-spawn stacks to their recorded pre-spawn stacks via
// spawn tags, trims runtime-library frames to form each sample's
// "instance" (its complete call path), and runs the blame attribution
// (transfer-function bubbling) to produce the final data-centric
// profile. It also derives the classic code-centric profile from the
// same samples (the paper notes this comes "with almost no overhead").
package postmortem

import (
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sampler"
	"repro/internal/sem"
	"repro/internal/vm"
)

// VarRow is one row of the flat data-centric view (paper Tables II/IV/VI).
type VarRow struct {
	// Name is the variable name or access path.
	Name string
	// Type is the display type ("[DistSpace] v3", "8*real", ...).
	Type string
	// Context is the defining procedure ("main" for globals).
	Context string
	// Samples is the number of samples blamed.
	Samples int
	// Blame is Samples / TotalSamples (§III BlamePercentage).
	Blame float64
	// IsPath marks field/element access-path rows.
	IsPath bool
	// Sym is the underlying symbol (nil for paths).
	Sym *sem.Symbol
}

// FuncRow is one row of the code-centric view (paper Fig. 4).
type FuncRow struct {
	Name    string
	Flat    int     // samples with this function innermost
	FlatPct float64 // share of total
	Cum     int     // samples with this function anywhere on the path
	CumPct  float64
}

// Profile is the final result of post-mortem processing.
type Profile struct {
	TotalSamples int
	DataCentric  []VarRow
	CodeCentric  []FuncRow
	Threshold    uint64
	Stats        vm.Stats
	// Dropped counts samples lost to the sampler's ring-buffer overrun:
	// the profile below is a partial view and the renderers say so.
	Dropped uint64
	// PerLocale holds per-node profiles for multi-locale runs (step 3 is
	// "embarrassingly parallel" per node; step 4 aggregates).
	PerLocale map[int]*Profile
}

// Row returns the data-centric row for a variable name, if present.
func (p *Profile) Row(name string) (VarRow, bool) {
	for _, r := range p.DataCentric {
		if r.Name == name {
			return r, true
		}
	}
	return VarRow{}, false
}

// Processor converts raw samples into a Profile.
type Processor struct {
	prog     *ir.Program
	analysis *core.Analysis
	spawns   map[uint64]sampler.SpawnRecord
}

// New creates a processor.
func New(prog *ir.Program, analysis *core.Analysis, spawns map[uint64]sampler.SpawnRecord) *Processor {
	return &Processor{prog: prog, analysis: analysis, spawns: spawns}
}

// Glue appends one raw sample's full, trimmed call path (the paper's
// per-sample "instance"), innermost first, to dst and returns the
// extended slice: address → instruction resolution, pre/post-spawn
// gluing via tags, runtime-frame trimming. dst is the caller's buffer;
// Glue keeps no reference to it.
func (p *Processor) Glue(dst []core.Frame, s sampler.RawSample) []core.Frame {
	start := len(dst)
	appendAddrs := func(addrs []uint64) {
		for _, a := range addrs {
			in := p.prog.InstrAt(a)
			if in == nil || in.Block == nil {
				continue
			}
			fn := in.Block.Func
			if fn.IsRuntime {
				continue // trim runtime frames
			}
			// Trim redundant adjacent duplicates (the paper trims
			// redundant stack info when gluing).
			if n := len(dst); n > start && dst[n-1].Instr == in {
				continue
			}
			dst = append(dst, core.Frame{Fn: fn, Instr: in})
		}
	}
	appendAddrs(s.Stack)
	// Glue pre-spawn traces by walking the tag chain.
	for tag := s.Tag; tag != 0; {
		rec, ok := p.spawns[tag]
		if !ok {
			break
		}
		appendAddrs(rec.Stack)
		tag = rec.ParentTag
	}
	return dst
}

// pathInfo is what Process derives from one distinct glued path.
type pathInfo struct {
	// blamed is the path's attribution (read-only, as AttributeSample
	// returns it).
	blamed []core.Blamed
	// fns lists the distinct functions on the path, by name.
	fns []string
}

// Process runs attribution and aggregation over all samples.
//
// Attribution is a pure function of a sample's glued frames, and samples
// repeat a few call paths many times, so each distinct path is attributed
// once per call, keyed by its frames' instruction addresses (an
// instruction determines its frame's function). Every sample is glued
// into one reused buffer, and nothing of samples is kept.
func (p *Processor) Process(samples []sampler.RawSample, threshold uint64, stats vm.Stats) *Profile {
	prof := &Profile{Threshold: threshold, Stats: stats}
	varRows := make(map[*sem.Symbol]*VarRow)
	pathRows := make(map[string]*VarRow)
	flat := make(map[string]int)
	cum := make(map[string]int)
	paths := make(map[string]pathInfo)
	var key []byte
	var frames []core.Frame

	for _, s := range samples {
		frames = p.Glue(frames[:0], s)
		prof.TotalSamples++

		key = key[:0]
		for _, fr := range frames {
			key = binary.AppendUvarint(key, fr.Instr.Addr)
		}
		pi, ok := paths[string(key)]
		if !ok {
			pi = pathInfo{blamed: p.analysis.AttributeSample(frames), fns: make([]string, 0, len(frames))}
			for _, fr := range frames {
				if !slices.Contains(pi.fns, fr.Fn.Name) {
					pi.fns = append(pi.fns, fr.Fn.Name)
				}
			}
			paths[string(key)] = pi
		}

		// Code-centric attribution (untrimmed view keeps runtime names).
		innermost := s.RuntimeFunc
		if innermost == "" {
			if in := p.prog.InstrAt(s.Addr); in != nil {
				innermost = in.Block.Func.Name
			}
		}
		if innermost != "" {
			flat[innermost]++
		}
		for _, name := range pi.fns {
			cum[name]++
		}
		if s.RuntimeFunc != "" && !slices.Contains(pi.fns, s.RuntimeFunc) {
			cum[s.RuntimeFunc]++
		}

		// Data-centric attribution.
		for _, b := range pi.blamed {
			if b.Path != "" {
				r, ok := pathRows[b.Path]
				if !ok {
					ctx := "main"
					if b.Root.Sym != nil {
						ctx = b.Root.Sym.Context()
					}
					ty := ""
					if b.Root.Type != nil {
						// The path's leaf type is not tracked statically;
						// report the root element type region.
						ty = b.Root.Type.String()
					}
					r = &VarRow{Name: b.Path, Type: ty, Context: ctx, IsPath: true}
					pathRows[b.Path] = r
				}
				r.Samples++
				continue
			}
			r, ok := varRows[b.Sym]
			if !ok {
				ty := ""
				if b.Sym.Type != nil {
					ty = b.Sym.Type.String()
				}
				r = &VarRow{Name: b.Sym.Name, Type: ty, Context: b.Sym.Context(), Sym: b.Sym}
				varRows[b.Sym] = r
			}
			r.Samples++
		}
	}

	total := prof.TotalSamples
	if total == 0 {
		total = 1
	}
	for _, r := range varRows {
		r.Blame = float64(r.Samples) / float64(total)
		prof.DataCentric = append(prof.DataCentric, *r)
	}
	for _, r := range pathRows {
		r.Blame = float64(r.Samples) / float64(total)
		prof.DataCentric = append(prof.DataCentric, *r)
	}
	sort.Slice(prof.DataCentric, func(i, j int) bool {
		a, b := prof.DataCentric[i], prof.DataCentric[j]
		if a.Samples != b.Samples {
			return a.Samples > b.Samples
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		// Same-named variables in different scopes (loop indices, ...)
		// must order deterministically too: rows come off map iteration,
		// so any tie left to the unstable sort varies across processes —
		// which the backend differential harness flags as a divergence.
		if a.Context != b.Context {
			return a.Context < b.Context
		}
		return !a.IsPath && b.IsPath
	})

	for name, n := range cum {
		prof.CodeCentric = append(prof.CodeCentric, FuncRow{
			Name: name,
			Flat: flat[name], FlatPct: float64(flat[name]) / float64(total),
			Cum: n, CumPct: float64(n) / float64(total),
		})
	}
	sort.Slice(prof.CodeCentric, func(i, j int) bool {
		a, b := prof.CodeCentric[i], prof.CodeCentric[j]
		if a.Flat != b.Flat {
			return a.Flat > b.Flat
		}
		return a.Name < b.Name
	})
	return prof
}

// ProcessPerLocale splits samples by locale, processes each node
// independently (embarrassingly parallel in the paper), then aggregates —
// the multi-locale extension of §VI.
func (p *Processor) ProcessPerLocale(samples []sampler.RawSample, threshold uint64, stats vm.Stats) *Profile {
	byLoc := make(map[int][]sampler.RawSample)
	for _, s := range samples {
		byLoc[s.Locale] = append(byLoc[s.Locale], s)
	}
	agg := p.Process(samples, threshold, stats)
	agg.PerLocale = make(map[int]*Profile)
	for loc, ss := range byLoc {
		agg.PerLocale[loc] = p.Process(ss, threshold, stats)
	}
	return agg
}
