package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestStaticViewDigests pins the bytes of the two execution-free
// `static` requests the perfbench catalogue checks, built exactly as
// perfbench/catalogue.go builds them. The digests are copied from
// perfbench/digests.json (sha256 of text, a zero byte, then output), so
// a change to the predicted view fails here before it fails the
// benchmark; a deliberate change updates both files together.
func TestStaticViewDigests(t *testing.T) {
	src, name, err := ResolveBench("gather")
	if err != nil {
		t.Fatal(err)
	}
	const decl = "config const n = "
	i := strings.Index(src, decl)
	if i < 0 {
		t.Fatalf("gather source has no %q", decl)
	}
	j := strings.IndexByte(src[i:], ';')
	gather := src[:i] + decl + "400" + src[i+j:]

	cases := []struct {
		key  string
		req  *Request
		want string
	}{
		{
			key:  "serve/fig1/static",
			req:  &Request{Bench: "fig1", View: "static"},
			want: "348d84da28e7646317cf8a8d4b7fbd10e83be4d54e50537a3579233b8818e142",
		},
		{
			key:  "static/gather/n=400/static",
			req:  &Request{Name: name, Source: gather, Locales: 4, CommInspector: true, View: "static"},
			want: "e1647d48783007a06e146137f7b1f5179ed7c151ff1db09bcf0f569e2ef117b5",
		},
	}
	for _, c := range cases {
		t.Run(c.key, func(t *testing.T) {
			if err := c.req.Normalize(); err != nil {
				t.Fatal(err)
			}
			out, err := Execute(c.req, nil)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write([]byte(out.Text))
			h.Write([]byte{0})
			h.Write([]byte(out.Output))
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("digest %s, want %s; text:\n%s", got, c.want, out.Text)
			}
		})
	}
}
