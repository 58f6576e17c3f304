package gobe

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/gobert"
	"repro/internal/compile"
	"repro/internal/serve"
)

// This file is the differential-testing surface: reference interpreter
// runs produced through the exact encode path the runner uses, so the
// harness compares byte-for-byte instead of field-by-field.

// InterpReply executes spec on the in-process interpreter and encodes
// the result exactly as a runner would. Run mode calls RunSpec.Run, the
// runner's own code; outcome mode goes through serve.Execute, the same
// pipeline the runner embeds.
func InterpReply(name, source string, opts compile.Options, spec *gobert.RunSpec) (*gobert.Reply, error) {
	res, err := compile.SourceCached(name, source, opts)
	if err != nil {
		return nil, err
	}
	switch spec.Mode {
	case "run":
		r := spec.Run(res.Prog)
		if r.Err != "" {
			return nil, errors.New(r.Err)
		}
		return r, nil
	case "outcome":
		if spec.Request == nil {
			return nil, fmt.Errorf("outcome mode needs a request")
		}
		req := *spec.Request
		req.Name = name
		req.Source = source
		if err := req.Normalize(); err != nil {
			return nil, err
		}
		start := time.Now()
		out, err := serve.Execute(&req, nil)
		wall := time.Since(start)
		r := &gobert.Reply{WallNs: wall.Nanoseconds()}
		if err != nil {
			r.RunErr = err.Error()
			return r, nil
		}
		oj, err := json.Marshal(out)
		if err != nil {
			return nil, err
		}
		r.Outcome = oj
		r.Profile = out.ProfileJSON
		return roundTrip(r)
	}
	return nil, fmt.Errorf("unknown mode %q", spec.Mode)
}

// roundTrip encodes and re-decodes a Reply the way the runner protocol
// does: json.Marshal compacts RawMessage fields (the indented
// ProfileJSON loses its whitespace in transit), so the reference reply
// must go through the same wire format the compiled reply arrived in.
func roundTrip(r *gobert.Reply) (*gobert.Reply, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	var out gobert.Reply
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Diff compares an interpreter reply and a compiled-backend reply and
// returns a list of human-readable divergences (empty = bit-identical
// in every pinned dimension: program output, run error, stats bytes,
// outcome bytes, profile bytes).
func Diff(interp, compiled *gobert.Reply) []string {
	var diffs []string
	if interp.Output != compiled.Output {
		diffs = append(diffs, fmt.Sprintf("program output differs:\ninterp:   %q\ncompiled: %q", interp.Output, compiled.Output))
	}
	if interp.RunErr != compiled.RunErr {
		diffs = append(diffs, fmt.Sprintf("runtime error differs: interp=%q compiled=%q", interp.RunErr, compiled.RunErr))
	}
	if !bytes.Equal(interp.Stats, compiled.Stats) {
		diffs = append(diffs, "stats JSON differs:\ninterp:   "+string(interp.Stats)+"\ncompiled: "+string(compiled.Stats))
	}
	if !bytes.Equal(interp.Outcome, compiled.Outcome) {
		diffs = append(diffs, "outcome JSON differs:\ninterp:   "+clip(interp.Outcome)+"\ncompiled: "+clip(compiled.Outcome))
	}
	if !bytes.Equal(interp.Profile, compiled.Profile) {
		diffs = append(diffs, "profile JSON differs:\ninterp:   "+clip(interp.Profile)+"\ncompiled: "+clip(compiled.Profile))
	}
	return diffs
}

func clip(b []byte) string {
	const n = 2000
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + fmt.Sprintf("... (%d bytes)", len(b))
}

// RunBoth builds the runner, executes spec on both backends and returns
// (interpreter reply, compiled reply).
func RunBoth(name, source string, opts compile.Options, spec *gobert.RunSpec) (*gobert.Reply, *gobert.Reply, error) {
	r, err := Build(name, source, opts)
	if err != nil {
		return nil, nil, err
	}
	compiled, err := r.Exec(spec)
	if err != nil {
		return nil, nil, err
	}
	interp, err := InterpReply(name, source, opts, spec)
	if err != nil {
		return nil, nil, err
	}
	return interp, compiled, nil
}
