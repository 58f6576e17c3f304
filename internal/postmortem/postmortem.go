// Package postmortem implements step 3 of the paper's pipeline: it takes
// the raw context-sensitive samples (address vectors), converts addresses
// to functions/files/lines via the program's debug information, glues
// worker-thread post-spawn stacks to their recorded pre-spawn stacks via
// spawn tags, trims runtime-library frames, builds per-sample
// "instances", and runs the blame attribution (transfer-function
// bubbling) to produce the final data-centric profile. It also derives
// the classic code-centric profile from the same samples (the paper
// notes this comes "with almost no overhead").
package postmortem

import (
	"sort"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sampler"
	"repro/internal/sem"
	"repro/internal/vm"
)

// Instance is the paper's per-sample abstraction: the complete, cleaned
// call path of one sample (module/file/line context per frame).
type Instance struct {
	// Frames is the glued call path, innermost first, runtime frames
	// trimmed.
	Frames []core.Frame
	// RuntimeFunc is set for samples that landed in runtime code.
	RuntimeFunc string
	// Tags lists the spawn tags glued through (outermost last).
	Tags []uint64
	// Locale is the node the sample came from.
	Locale int
}

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
	Instances    []Instance
	Threshold    uint64
	Stats        vm.Stats
	// Dropped counts profile records lost upstream (sampler ring-buffer
	// overrun, truncated/corrupt dataset records): the profile below is a
	// partial view and the renderers say so.
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

// ProcessDataset runs attribution over a dataset read back from disk,
// carrying the dataset's drop count (truncated or corrupt records) into
// the profile so the rendered views disclose the partial coverage.
func (p *Processor) ProcessDataset(ds *sampler.Dataset, stats vm.Stats) *Profile {
	prof := p.Process(ds.Samples, ds.Threshold, stats)
	prof.Dropped += ds.Dropped
	return prof
}

// Glue builds the full, trimmed call path of one raw sample: address →
// instruction resolution, pre/post-spawn gluing via tags, runtime-frame
// trimming.
func (p *Processor) Glue(s sampler.RawSample) Instance {
	inst := Instance{RuntimeFunc: s.RuntimeFunc, Locale: s.Locale}
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
			if n := len(inst.Frames); n > 0 && inst.Frames[n-1].Instr == in {
				continue
			}
			inst.Frames = append(inst.Frames, core.Frame{Fn: fn, Instr: in})
		}
	}
	appendAddrs(s.Stack)
	// Glue pre-spawn traces by walking the tag chain.
	tag := s.Tag
	for tag != 0 {
		rec, ok := p.spawns[tag]
		if !ok {
			break
		}
		inst.Tags = append(inst.Tags, tag)
		appendAddrs(rec.Stack)
		tag = rec.ParentTag
	}
	return inst
}

// Process runs attribution and aggregation over all samples.
func (p *Processor) Process(samples []sampler.RawSample, threshold uint64, stats vm.Stats) *Profile {
	prof := &Profile{Threshold: threshold, Stats: stats}
	varRows := make(map[*sem.Symbol]*VarRow)
	pathRows := make(map[string]*VarRow)
	flat := make(map[string]int)
	cum := make(map[string]int)

	for _, s := range samples {
		inst := p.Glue(s)
		prof.Instances = append(prof.Instances, inst)
		prof.TotalSamples++

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
		seenFn := map[string]bool{}
		if s.RuntimeFunc != "" {
			seenFn[s.RuntimeFunc] = true
		}
		for _, fr := range inst.Frames {
			seenFn[fr.Fn.Name] = true
		}
		for name := range seenFn {
			cum[name]++
		}

		// Data-centric attribution.
		for _, b := range p.analysis.AttributeSample(inst.Frames) {
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
