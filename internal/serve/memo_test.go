package serve

import (
	"fmt"
	"testing"

	"repro/internal/memo"
)

// TestMemosBounded sends more distinct programs through Execute than a
// memo may hold, under the views that fill each memo layer: every memo
// the pipeline touches must stay within memo.Max, so a long-running
// daemon does not keep every program it has compiled.
func TestMemosBounded(t *testing.T) {
	for i := 0; i < memo.Max+50; i++ {
		src := fmt.Sprintf("config const n = 3;\nproc main() {\n  var s = %d;\n  for i in 1..n { s += i; }\n  writeln(s);\n}\n", i)
		for _, view := range []string{"data", "static", "lint-json"} {
			req := Request{Source: src, Name: "bound.mchpl", View: view}
			if err := req.Normalize(); err != nil {
				t.Fatal(err)
			}
			if _, err := Execute(&req, nil); err != nil {
				t.Fatalf("program %d, view %s: %v", i, view, err)
			}
		}
	}
	sizes := memo.Sizes()
	for _, name := range []string{"compile", "core", "vm.cost", "blame.unmonitored"} {
		if n, ok := sizes[name]; !ok || n != memo.Max {
			t.Errorf("memo %q holds %d entries (registered %v), want it filled to the bound %d", name, n, ok, memo.Max)
		}
	}
	for name, n := range sizes {
		if n > memo.Max {
			t.Errorf("memo %q holds %d entries, above memo.Max %d", name, n, memo.Max)
		}
	}
}
