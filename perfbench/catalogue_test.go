package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/serve"
)

func keys(passes [][]entry) []string {
	var out []string
	for _, pass := range passes {
		for _, e := range pass {
			out = append(out, e.Key)
		}
	}
	return out
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// Same seed, same sequence; another seed, another order of the same
// multiset, so every seed does identical work.
func TestSequenceIsSeededAndStratified(t *testing.T) {
	cat := profileEntries()
	a, b := keys(sequence(cat, 7, 2)), keys(sequence(cat, 7, 2))
	if !reflect.DeepEqual(a, b) {
		t.Error("profile: seed 7 gave two different sequences")
	}
	c := keys(sequence(cat, 8, 2))
	if reflect.DeepEqual(a, c) {
		t.Error("profile: seeds 7 and 8 gave the same order")
	}
	if !reflect.DeepEqual(sorted(a), sorted(c)) {
		t.Error("profile: seeds 7 and 8 gave different multisets")
	}
	for _, pass := range sequence(cat, 9, 3) {
		if !reflect.DeepEqual(sorted(keys([][]entry{pass})), sorted(keys([][]entry{cat}))) {
			t.Error("profile: a pass does not hold every entry exactly once")
		}
	}
	sa, sc := servePasses(7, 2, 1), servePasses(8, 2, 1)
	if !reflect.DeepEqual(keys(sa), keys(servePasses(7, 2, 1))) {
		t.Error("serve: seed 7 gave two different sequences")
	}
	reqKey := func(seq []entry) []string {
		var out []string
		for _, e := range seq {
			r := e.request()
			if err := r.Normalize(); err != nil {
				t.Fatal(err)
			}
			out = append(out, r.Key())
		}
		return out
	}
	for p := range sa {
		if !reflect.DeepEqual(sorted(reqKey(sa[p])), sorted(reqKey(sc[p]))) {
			t.Errorf("serve: seeds 7 and 8 gave different multisets of requests in pass %d", p+1)
		}
	}
	if !reflect.DeepEqual(sorted(keys(sa[:1])), sorted(keys(sa[1:]))) {
		t.Error("serve: two passes hold different multisets of digest rows")
	}
}

func TestCatalogueShape(t *testing.T) {
	if n := len(profileEntries()); n != 120 {
		t.Errorf("profile catalogue has %d entries, want 10 programs x 3 sizes x 4 views", n)
	}
	cacheKey := func(e entry) string {
		r := e.request()
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		return r.Key()
	}
	warm := map[string]bool{}
	for _, e := range serveWarmEntries() {
		warm[cacheKey(e)] = true
	}
	seen := map[string]bool{}
	misses := 0
	for _, e := range append(servePasses(1, 2, 1)[0], servePasses(1, 2, 1)[1]...) {
		k := cacheKey(e)
		if warm[k] {
			continue
		}
		if seen[k] {
			t.Fatalf("miss %+v repeats a cache key", e.Req)
		}
		seen[k] = true
		misses++
	}
	if want := 2 * serveMissesPerPass; misses != want {
		t.Errorf("two serve passes hold %d never-seen requests, want %d", misses, want)
	}
}

// Every entry a workload can send has a row in the digest table.
func TestDigestTableCoversCatalogue(t *testing.T) {
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	all := catalogue()
	for k := range all {
		if _, ok := table[k]; !ok {
			t.Errorf("no digest row for %s", k)
		}
	}
	if len(table) != len(all) {
		t.Errorf("digest table has %d rows for %d catalogue entries", len(table), len(all))
	}
}

// fig1Miss shares one digest row across limits and core counts; check
// that the bytes really do not depend on them.
func TestFig1MissesShareTheirDigest(t *testing.T) {
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 777, serve.MaxLimit + 3, 3*serve.MaxLimit + 1} {
		e := fig1Miss(i)
		resp, err := execLocal(e.request())
		if err != nil {
			t.Fatal(err)
		}
		if got := outcomeDigest(resp.text, resp.output); got != table[e.Key] {
			t.Errorf("fig1 miss %d (limit %d, cores %d): digest %s, table %s", i, e.Req.Limit, e.Req.Cores, got, table[e.Key])
		}
	}
}

// BENCHMARK.json names exactly the metrics the benchmark reports.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	type m struct{ Name, Unit, Better string }
	var spec struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []m
		want []struct{ name, unit, better string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var want []m
		for _, x := range c.want {
			want = append(want, m{x.name, x.unit, x.better})
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("%s in BENCHMARK.json:\n got %v\nwant %v", c.what, c.got, want)
		}
	}
}
