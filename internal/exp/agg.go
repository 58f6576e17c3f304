package exp

import (
	"fmt"
	"strings"

	"repro/internal/benchprog"
	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/postmortem"
	"repro/internal/serve"
	"repro/internal/vm"
)

// TableAgg regenerates the communication-aggregation study (§VI
// extension): the halo-exchange stencil at 4 locales, measured once with
// per-element remote access and once under the modeled aggregation
// runtime (-comm-aggregate). Every per-variable reduction row cites the
// static comm-pattern finding that predicted it — the advisor join, now
// closing the predict -> transform -> measure loop.
func TableAgg() (*Table, error) {
	prog := benchprog.Halo()
	cfgs := benchprog.DefaultHalo.Configs()
	res, err := prog.Compile(compile.Options{})
	if err != nil {
		return nil, err
	}

	// The static side of the join: the comm-pattern findings per variable.
	rep := analysisReport(res.Prog)
	predicted := make(map[string][]string)
	for _, d := range rep.ByPass("comm-pattern") {
		if d.Var == "" || strings.Contains(d.Message, "communication summary") {
			continue
		}
		kind := "remote access"
		for _, k := range []string{"halo access", "wavefront access", "strided access",
			"blocked access", "sweep access", "fine-grained remote access"} {
			if strings.Contains(d.Message, k) {
				kind = k
				break
			}
		}
		predicted[d.Var] = append(predicted[d.Var],
			fmt.Sprintf("%s at %s", kind, rep.Prog.FileSet.Position(d.Pos)))
	}
	cite := func(name string) string {
		cs := predicted[name]
		if len(cs) == 0 {
			return "-"
		}
		if len(cs) > 2 {
			return strings.Join(cs[:2], "; ") + fmt.Sprintf(" (+%d more)", len(cs)-2)
		}
		return strings.Join(cs, "; ")
	}

	run := func(aggregate, ownerComputes bool) (*postmortem.CommProfile, vm.Stats, string, error) {
		var out strings.Builder
		req := serve.Request{Configs: cfgs, Locales: 4, CommAggregate: aggregate, NoOwnerComputes: !ownerComputes}
		bc := blame.DefaultConfig()
		bc.VM = req.VMConfig(res.Prog)
		bc.VM.Stdout = &out
		r, err := blame.Profile(res.Prog, bc)
		if err != nil {
			return nil, vm.Stats{}, "", err
		}
		return r.CommBlame(), r.Stats, out.String(), nil
	}
	// The aggregation study keeps PR 2's spawn-locale scheduling so the
	// before/after pair isolates the runtime transform; the owner-computes
	// scheduler's effect rides along as a note (and TableLocales).
	dp, ds, dout, err := run(false, false)
	if err != nil {
		return nil, err
	}
	ap, as, aout, err := run(true, false)
	if err != nil {
		return nil, err
	}
	_, ws, wout, err := run(true, true)
	if err != nil {
		return nil, err
	}

	aggMsgs := func(name string) int {
		for _, r := range ap.Rows {
			if r.Name == name {
				return r.Messages
			}
		}
		return 0
	}
	iratio := func(a, b int) string {
		if b == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", float64(a)/float64(b))
	}

	t := &Table{
		ID:     "Table Agg",
		Title:  "Halo exchange w/ and w/o modeled aggregation (4 locales)",
		Header: []string{"Variable", "Msgs (direct)", "Msgs (aggregated)", "Reduction", "Predicted by"},
	}
	for _, r := range dp.Rows {
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprint(r.Messages), fmt.Sprint(aggMsgs(r.Name)),
			iratio(r.Messages, aggMsgs(r.Name)), cite(r.Name),
		})
	}
	t.Rows = append(t.Rows, []string{
		"(total)", fmt.Sprint(ds.CommMessages), fmt.Sprint(as.CommMessages),
		iratio(int(ds.CommMessages), int(as.CommMessages)), "-",
	})

	t.Notes = append(t.Notes,
		fmt.Sprintf("output identical: %v", dout == aout),
		fmt.Sprintf("bytes on the wire: %d direct vs %d aggregated", ds.CommBytes, as.CommBytes),
		fmt.Sprintf("wall time: %s s direct vs %s s aggregated (%s speedup)",
			secs(ds.Seconds()), secs(as.Seconds()),
			ratio(ds.Seconds(), as.Seconds())),
	)
	if a := as.Agg; a != nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"aggregation runtime: %.1f%% cache hit rate, %d prefetches (%d elems), %d streams (%d elems), %d flushes (%d elems)",
			a.HitRate()*100, a.Prefetches, a.PrefetchedElems, a.Streams, a.StreamedElems, a.Flushes, a.FlushedElems))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"owner-computes scheduling (default) cuts this further: %d messages, %d owner-site violations, output identical: %v (see Table Locales)",
		ws.CommMessages, ws.OwnerSiteRemote, wout == aout))
	return t, nil
}

// predictedBy renders the advisor join for a §V speedup row: the named
// passes' findings on the program the optimization started from.
func predictedBy(p benchprog.Program, passes ...string) string {
	res, err := p.Compile(compile.Options{})
	if err != nil {
		return "-"
	}
	rep := analysisReport(res.Prog)
	var cites []string
	for _, pass := range passes {
		ds := rep.ByPass(pass)
		if len(ds) == 0 {
			continue
		}
		c := fmt.Sprintf("%s at %s", pass, rep.Prog.FileSet.Position(ds[0].Pos))
		if len(ds) > 1 {
			c += fmt.Sprintf(" (+%d more)", len(ds)-1)
		}
		cites = append(cites, c)
	}
	if len(cites) == 0 {
		return "-"
	}
	return strings.Join(cites, "; ")
}
