package postmortem_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/postmortem"
)

// Corrupt profile JSON must come back as a wrapped error naming the byte
// offset (truncation, syntax damage) or the offending field (impossible
// values) — never a panic, never a silently-zero profile.
func TestReadJSONCorruptInputs(t *testing.T) {
	valid := `{"total_samples": 10, "threshold": 101,
		"data_centric": [{"name":"A","type":"[domain(1)] real","context":"main","samples":7,"blame":0.7}],
		"code_centric": [{"Name":"main","Flat":10,"FlatPct":100,"Cum":10,"CumPct":100}],
		"stats": {}}`
	if _, err := postmortem.ReadJSON(strings.NewReader(valid)); err != nil {
		t.Fatalf("fixture rejected: %v", err)
	}

	cases := []struct {
		name, in, want string
	}{
		{"truncated", valid[:60], "decode failed at byte"},
		{"empty", "", "decode failed"},
		{"nan blame", strings.Replace(valid, `"blame":0.7`, `"blame":NaN`, 1), "decode failed at byte"},
		{"inf blame", strings.Replace(valid, `"blame":0.7`, `"blame":1e999`, 1), "decode failed at byte"},
		{"negative samples", strings.Replace(valid, `"samples":7`, `"samples":-7`, 1), "negative samples"},
		{"negative totals", strings.Replace(valid, `"total_samples": 10`, `"total_samples": -10`, 1), "negative total_samples"},
		{"negative flat", strings.Replace(valid, `"Flat":10`, `"Flat":-10`, 1), "negative sample counts"},
		{"negative locale", `{"total_samples":1,"per_locale":{"-3":{"total_samples":0}}}`, "negative locale key"},
		{"null locale", `{"total_samples":1,"per_locale":{"0":null}}`, "is null"},
		{"nested bad", `{"total_samples":1,"per_locale":{"0":{"total_samples":-1}}}`, "per_locale[0]"},
	}
	for _, c := range cases {
		_, err := postmortem.ReadJSON(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestJSONRoundTripKeepsDropped(t *testing.T) {
	p := &postmortem.Profile{TotalSamples: 5, Dropped: 3}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := postmortem.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", got.Dropped)
	}
}

// FuzzProfileJSON: ReadJSON never panics, and a profile it accepts
// re-encodes (WriteJSON) to bytes that load again and re-encode to the
// same bytes. Seeds: a real fig1 profile, a per-locale one, a truncated
// one and one with negative samples.
func FuzzProfileJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := postmortem.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := p.WriteJSON(&first); err != nil {
			t.Fatalf("accepted profile does not encode: %v", err)
		}
		q, err := postmortem.ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded profile does not load: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := q.WriteJSON(&second); err != nil {
			t.Fatalf("reloaded profile does not encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
