// Package views renders the tool's three presentation windows (paper
// §IV.D / Fig. 3) as text: the flat data-centric view (default), the
// classic code-centric view in gperftools-pprof format (Fig. 4), and the
// hybrid "blame points" view that groups variables by the procedure
// whose scope pins them.
package views

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hpctk"
	"repro/internal/postmortem"
)

// DataCentric renders the flat data-centric view: all variables ranked in
// descending blame order with type and definition context (Tables II, IV
// and VI of the paper).
func DataCentric(p *postmortem.Profile, limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Flat data-centric view (%d samples, threshold %d)\n", p.TotalSamples, p.Threshold)
	if p.Dropped > 0 {
		fmt.Fprintf(&b, "WARNING: partial profile — %d records dropped (buffer overrun or corrupt dataset)\n", p.Dropped)
	}
	fmt.Fprintf(&b, "%-42s %-28s %8s  %s\n", "Name", "Type", "Blame", "Context")
	n := 0
	for _, r := range p.DataCentric {
		if limit > 0 && n >= limit {
			break
		}
		name := r.Name
		if r.IsPath {
			name = pathDisplay(r.Name)
		}
		fmt.Fprintf(&b, "%-42s %-28s %7.1f%%  %s\n", name, r.Type, r.Blame*100, r.Context)
		n++
	}
	return b.String()
}

// pathDisplay renders access paths with the paper's "->" parent-relation
// marker ("->partArray[i].zoneArray[j].value").
func pathDisplay(path string) string { return "->" + path }

// CodeCentric renders the pprof-style code-centric view, matching the
// column layout of paper Fig. 4:
//
//	samples  %samples  %cumulative  cum-samples  %cum  name
func CodeCentric(p *postmortem.Profile, limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Total: %d samples\n", p.TotalSamples)
	running := 0.0
	n := 0
	for _, r := range p.CodeCentric {
		if limit > 0 && n >= limit {
			break
		}
		running += r.FlatPct * 100
		fmt.Fprintf(&b, "%8d %5.1f%% %5.1f%% %8d %5.1f%% %s\n",
			r.Flat, r.FlatPct*100, running, r.Cum, r.CumPct*100, r.Name)
		n++
	}
	return b.String()
}

// Hybrid renders the blame-points view: variables grouped under the
// procedure whose scope they cannot be bubbled out of ("the most common
// one is the main function" — §IV.D). Groups are ordered by their total
// blame; main always first when present.
func Hybrid(p *postmortem.Profile, perGroup int) string {
	groups := make(map[string][]postmortem.VarRow)
	for _, r := range p.DataCentric {
		if r.IsPath {
			continue
		}
		groups[r.Context] = append(groups[r.Context], r)
	}
	type g struct {
		name  string
		total float64
		rows  []postmortem.VarRow
	}
	var list []g
	for name, rows := range groups {
		t := 0.0
		for _, r := range rows {
			t += r.Blame
		}
		list = append(list, g{name, t, rows})
	}
	sort.Slice(list, func(i, j int) bool {
		if (list[i].name == "main") != (list[j].name == "main") {
			return list[i].name == "main"
		}
		if list[i].total != list[j].total {
			return list[i].total > list[j].total
		}
		return list[i].name < list[j].name
	})
	var b strings.Builder
	b.WriteString("Blame points\n")
	for _, grp := range list {
		fmt.Fprintf(&b, "blame point %s (total %.1f%%)\n", grp.name, grp.total*100)
		for i, r := range grp.rows {
			if perGroup > 0 && i >= perGroup {
				break
			}
			fmt.Fprintf(&b, "  %-40s %-24s %6.1f%%\n", r.Name, r.Type, r.Blame*100)
		}
	}
	return b.String()
}

// CommCentric renders the communication-blame view (paper §VI future
// work): inter-locale traffic attributed to the data structures it moved.
func CommCentric(p *postmortem.CommProfile, limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Communication blame (%d messages, %.2f KB)\n", p.TotalMsgs, float64(p.TotalBytes)/1e3)
	fmt.Fprintf(&b, "%-32s %10s %10s %8s  %s\n", "Name", "Messages", "Bytes", "Share", "Context")
	for i, r := range p.Rows {
		if limit > 0 && i >= limit {
			break
		}
		fmt.Fprintf(&b, "%-32s %10d %10d %7.1f%%  %s\n", r.Name, r.Messages, r.Bytes, r.Share*100, r.Context)
	}
	// Locale-pair matrix.
	froms := make([]int, 0, len(p.Matrix))
	for f := range p.Matrix {
		froms = append(froms, f)
	}
	sort.Ints(froms)
	for _, f := range froms {
		tos := make([]int, 0, len(p.Matrix[f]))
		for t := range p.Matrix[f] {
			tos = append(tos, t)
		}
		sort.Ints(tos)
		for _, t := range tos {
			fmt.Fprintf(&b, "  locale %d -> locale %d: %d bytes\n", f, t, p.Matrix[f][t])
		}
	}
	if p.Scheduled {
		fmt.Fprintf(&b, "Scheduling: %d owner-computes chunks (%d spawned remotely), %d owner-site violations\n",
			p.OwnerChunks, p.RemoteSpawns, p.OwnerSiteRemote)
	}
	if a := p.Agg; a != nil {
		fmt.Fprintf(&b, "Aggregation runtime (modeled): %d messages, %.2f KB on the wire\n",
			a.Messages, float64(a.Bytes)/1e3)
		fmt.Fprintf(&b, "  cache: %.1f%% hit rate (%d hits / %d misses), %d evictions, %d invalidations\n",
			100*a.HitRate(), a.Hits, a.Misses, a.Evictions, a.Invalidations)
		fmt.Fprintf(&b, "  coalescing: %d halo prefetches (%d elems), %d run streams (%d elems), %d write-back flushes (%d elems)\n",
			a.Prefetches, a.PrefetchedElems, a.Streams, a.StreamedElems, a.Flushes, a.FlushedElems)
		if f := a.Fault; f != nil {
			fmt.Fprintf(&b, "  faults: %d retries, %d timeouts, %d dropped, %d duplicates suppressed, %d locale fallbacks, %d extra latency units\n",
				f.Retries, f.Timeouts, f.DroppedMsgs, f.DuplicatesSuppressed, f.FailedLocaleFallbacks, f.ExtraLatUnits)
		}
		for _, name := range a.VarNames() {
			vs := a.PerVar[name]
			fmt.Fprintf(&b, "  %-30s %6d messages %10d bytes %6d hits\n", name, vs.Messages, vs.Bytes, vs.Hits)
			for _, pr := range vs.SortedPairs() {
				fmt.Fprintf(&b, "    locale %d -> locale %d: %d messages\n", pr.From, pr.To, vs.Pairs[pr])
			}
		}
	}
	return b.String()
}

// Baseline renders the HPCToolkit-like comparison profile (§II.B).
func Baseline(p *hpctk.Profile, limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "HPCToolkit-like data view (%d samples, blocks >= %d bytes)\n",
		p.TotalSamples, hpctk.MinTrackedBytes)
	n := 0
	for _, r := range p.Rows {
		if limit > 0 && n >= limit {
			break
		}
		fmt.Fprintf(&b, "%-42s %7.2f%% (%d)\n", r.Name, r.Share*100, r.Samples)
		n++
	}
	return b.String()
}

// Overhead renders the monitoring-overhead summary of §V.
func Overhead(p *postmortem.Profile, stackWalks uint64, dataSetBytes int64) string {
	var b strings.Builder
	wall := p.Stats.Seconds()
	interval := 0.0
	if p.TotalSamples > 0 {
		interval = wall / float64(p.TotalSamples) * 1e6
	}
	fmt.Fprintf(&b, "run time               %.6f s (simulated)\n", wall)
	fmt.Fprintf(&b, "samples                %d\n", p.TotalSamples)
	fmt.Fprintf(&b, "sampling interval      %.3f us\n", interval)
	fmt.Fprintf(&b, "stack walks            %d\n", stackWalks)
	fmt.Fprintf(&b, "raw dataset            %.2f MB\n", float64(dataSetBytes)/1e6)
	return b.String()
}
