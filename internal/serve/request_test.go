package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func normalized(t *testing.T, mutate func(*Request)) *Request {
	t.Helper()
	r := &Request{Bench: "fig1"}
	if mutate != nil {
		mutate(r)
	}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	return r
}

// schedulingOnly lists the Request fields Key deliberately ignores:
// Priority, DeadlineMs and NoCache steer scheduling, and Bench resolves
// into Source and Name, which are keyed.
var schedulingOnly = map[string]bool{
	"Priority": true, "DeadlineMs": true, "NoCache": true, "Bench": true,
}

// mutateField sets field f of r to a value that differs from its
// normalized fig1 default and that Normalize accepts.
func mutateField(t *testing.T, r *Request, f reflect.StructField) {
	t.Helper()
	v := reflect.ValueOf(r).Elem().FieldByIndex(f.Index)
	switch f.Name {
	case "Source", "Name":
		// Inline the bench first: Normalize would overwrite both from it.
		src, name, err := ResolveBench(r.Bench)
		if err != nil {
			t.Fatal(err)
		}
		r.Bench, r.Source, r.Name = "", src, name
		v.SetString(v.String() + "\n")
	case "View":
		v.SetString("code")
	case "FaultSpec":
		v.SetString("loss=0.01")
	case "FaultSeed":
		r.FaultSpec = "loss=0.01"
		v.SetUint(42)
	case "CommCache":
		r.CommAggregate = true
		v.SetInt(7)
	case "Configs":
		v.Set(reflect.ValueOf(map[string]string{"n": "8"}))
	default:
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(3)
		case reflect.Uint64:
			v.SetUint(1001)
		case reflect.String:
			v.SetString("other.mchpl")
		default:
			t.Fatalf("field %s: no mutation for kind %s", f.Name, v.Kind())
		}
	}
}

// TestRequestKeyCoversSemantics is the cache-key audit as a test: it
// walks every Request field by reflection, so a new knob cannot be left
// out of the key silently. Each field must change Key when mutated or be
// listed in schedulingOnly; distinct fields must not alias each other.
func TestRequestKeyCoversSemantics(t *testing.T) {
	base := normalized(t, nil).Key()
	seen := map[string]string{base: "base"}
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if schedulingOnly[f.Name] {
			continue
		}
		k := normalized(t, func(r *Request) { mutateField(t, r, f) }).Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s gives the key of %s", f.Name, prev)
		}
		seen[k] = f.Name
	}
}

// TestRequestKeyPinned pins Key bytes: a journal written by an earlier
// build replays only if the same request still hashes to the same key.
func TestRequestKeyPinned(t *testing.T) {
	for _, c := range []struct {
		req  Request
		want string
	}{
		{Request{Bench: "fig1"}, "6a35855df723faae44e72a9e6478445a547bbb169cafa27692af1e678153d5ec"},
		{Request{Bench: "halo", Locales: 4, CommInspector: true}, "516f4f16ddd101e311a8af63e983838d57bd640bf8e59a11315c334d9a3a7974"},
		{Request{Bench: "fig1", FaultSpec: "loss=0.05"}, "2c2c4239eb15798eda557f948a1500f488c55ecfe68758d628c41bcbce1858ba"},
	} {
		r := c.req
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		if got := r.Key(); got != c.want {
			t.Errorf("%s: key %s, want %s", r.Summary(), got, c.want)
		}
	}
}

// TestRequestKeyIgnoresScheduling: priority, deadline and no-cache steer
// scheduling only — they must NOT change the content-addressed key, or
// identical work would stop coalescing.
func TestRequestKeyIgnoresScheduling(t *testing.T) {
	base := normalized(t, nil).Key()
	sched := normalized(t, func(r *Request) {
		r.Priority = 9
		r.DeadlineMs = 5000
		r.NoCache = true
	}).Key()
	if base != sched {
		t.Fatal("scheduling-only fields changed the cache key")
	}
}

// TestRequestKeyConfigOrder: config maps are canonicalized, so insertion
// order cannot split the cache.
func TestRequestKeyConfigOrder(t *testing.T) {
	a := normalized(t, func(r *Request) { r.Configs = map[string]string{"a": "1", "b": "2", "c": "3"} })
	b := normalized(t, func(r *Request) { r.Configs = map[string]string{"c": "3", "b": "2", "a": "1"} })
	if a.Key() != b.Key() {
		t.Fatal("config insertion order changed the key")
	}
}

// TestNormalizeValidation pins the request guards.
func TestNormalizeValidation(t *testing.T) {
	bad := []Request{
		{},                                  // neither bench nor source
		{Bench: "fig1", Source: "var x;"},   // both
		{Bench: "no-such-bench"},            // unknown bench
		{Bench: "fig1", Locales: 1000},      // locales over the cap
		{Bench: "fig1", Cores: -1},          // negative cores
		{Bench: "fig1", View: "bogus"},      // unknown view
		{Bench: "fig1", Limit: -2},          // only -1 is the unlimited form
		{Bench: "fig1", Skid: -1},           // negative skid
		{Bench: "fig1", FaultSpec: "nope="}, // unparsable fault spec
		{Bench: "fig1", DeadlineMs: -5},     // negative deadline
	}
	for i, r := range bad {
		if err := r.Normalize(); err == nil {
			t.Errorf("bad request %d normalized without error: %+v", i, r)
		}
	}

	r := Request{Bench: "fig1"}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.Source == "" || r.Name == "" {
		t.Fatal("bench was not resolved to source")
	}
	if r.Locales != 1 || r.Cores != 12 || r.View != "data" || r.Limit != 20 {
		t.Fatalf("defaults not applied: %+v", r)
	}
}

// TestNormalizeIdempotent pins that a normalized bench request (which
// carries both its bench name and the resolved source) normalizes again
// to the same request and key, as the native runner re-normalizes what
// the host already normalized.
func TestNormalizeIdempotent(t *testing.T) {
	for _, r := range []*Request{
		{Bench: "fig1"},
		{Bench: "wavefront", Locales: 4, CommAggregate: true, View: "static"},
		{Source: "writeln(1);\n"},
	} {
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		first, key := *r, r.Key()
		if err := r.Normalize(); err != nil {
			t.Fatalf("second Normalize of %s: %v", first.Summary(), err)
		}
		if !reflect.DeepEqual(*r, first) || r.Key() != key {
			t.Errorf("second Normalize changed the request:\n%+v\n%+v", first, *r)
		}
	}
}

// FuzzRequest feeds arbitrary bytes through the server's request decode
// path (unknown fields rejected, as decodeRequest does). Decoding,
// Normalize and Key never panic. A request Normalize accepts is a fixed
// point of Normalize, and its Key survives a JSON round trip, so the
// outcome cache cannot split one request into two entries by how a
// client happened to encode it.
func FuzzRequest(f *testing.F) {
	f.Add([]byte(`{"source":"writeln(1);","configs":{"n":"3"},"limit":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			return
		}
		if err := r.Normalize(); err != nil {
			r.Key()
			return
		}
		key := r.Key()
		if err := r.Normalize(); err != nil {
			t.Fatalf("second Normalize rejected a normalized request: %v", err)
		}
		if k := r.Key(); k != key {
			t.Fatalf("second Normalize moved the key: %s -> %s", key, k)
		}
		b, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		var back Request
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", b, err)
		}
		if err := back.Normalize(); err != nil {
			t.Fatalf("Normalize rejected the re-encoded request %s: %v", b, err)
		}
		if k := back.Key(); k != key {
			t.Fatalf("JSON round trip moved the key: %s -> %s (%s)", key, k, b)
		}
	})
}
