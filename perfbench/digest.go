package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/serve"
)

// digests.json maps every catalogue Key to the sha256 of the outcome text
// and program output that the in-process interpreter produces for it. It
// is regenerated with `go run . -write-digests digests.json` in this
// directory, and must only change with a deliberate change of output.
//
//go:embed digests.json
var digestsJSON []byte

func loadDigests() (map[string]string, error) {
	var table map[string]string
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		return nil, fmt.Errorf("digest table: %w", err)
	}
	return table, nil
}

// outcomeDigest is a digest-table value: sha256 over the outcome text and
// the program's own output.
func outcomeDigest(text, output string) string {
	h := sha256.New()
	h.Write([]byte(text))
	h.Write([]byte{0})
	h.Write([]byte(output))
	return hex.EncodeToString(h.Sum(nil))
}

// bytesDigest covers every byte an outcome carries, the profile JSON
// included; the traced run compares re-driven outcomes with it.
func bytesDigest(text string, profile []byte, output string) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(text))
	h.Write([]byte{0})
	h.Write(profile)
	h.Write([]byte{0})
	h.Write([]byte(output))
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d
}

// catalogue is every entry any workload can issue, keyed by digest Key.
func catalogue() map[string]entry {
	all := map[string]entry{}
	for _, cat := range [][]entry{profileEntries(), staticProbes(), serveWarmEntries(), {fig1Miss(1)}} {
		for _, e := range cat {
			all[e.Key] = e
		}
	}
	return all
}

// writeDigests runs every catalogue entry once through serve.Execute and
// writes the digest table to path.
func writeDigests(path string) error {
	all := catalogue()
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	table := make(map[string]string, len(keys))
	for _, k := range keys {
		req := all[k].request()
		if err := req.Normalize(); err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		out, err := serve.Execute(req, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		table[k] = outcomeDigest(out.Text, out.Output)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(table); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
