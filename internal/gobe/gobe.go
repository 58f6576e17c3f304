package gobe

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/gobert"
	"repro/internal/compile"
	"repro/internal/memo"
)

// ErrNoGoToolchain is returned (wrapped) when -backend=go is requested
// but no `go` binary is on PATH. CLIs must surface it as a clean
// nonzero exit, never a panic.
var ErrNoGoToolchain = errors.New("the go backend requires the Go toolchain (`go` not found on PATH); rerun with -backend=interp or install Go")

// Runner is one built per-program runner binary.
type Runner struct {
	Name   string
	Source string
	Opts   compile.Options
	Bin    string
}

// built is a memoized in-process build. A failed build is memoized with
// it, so a broken runner is not rebuilt on every request.
type built struct {
	r   *Runner
	err error
}

// builds dedupes in-process builds of the same (program, options): the
// second Build for an identical key returns the first one's result,
// mirroring the compile memo layer this cache extends.
var builds = memo.New[string, built]("gobe")

// digests memoizes sourceDigest by checkout root, so a process walks the
// support sources once rather than once per Build.
var digests = memo.New[string, string]("gobe.sources")

// Build code-generates, compiles and caches the runner for a program.
// The cache key is a pure function of what the binary is made of: the
// program name, source text and compile options, plus sourceDigest of
// the checkout the runner links. Name and source are part of the key
// because the binary embeds them verbatim and its outcome mode rejects
// requests for any other program — two builds of IR-identical programs
// under different names must not share a binary. The digest covers the
// frontend, so the IR fingerprint needs no place in the key: the cache
// is checked first and the program is compiled only on a miss. Cached
// binaries are reused across processes; the in-process memo also
// dedupes concurrent builds.
func Build(name, source string, opts compile.Options) (*Runner, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	digest, err := digests.Get(root, func() (string, error) { return sourceDigest(root) })
	if err != nil {
		return nil, fmt.Errorf("hashing the runner's support sources: %w", err)
	}
	key := cacheKey(name, source, digest, opts)
	b, _ := builds.Get(key, func() (built, error) {
		r, err := build(root, name, source, opts, key)
		return built{r, err}, nil
	})
	return b.r, b.err
}

func cacheKey(name, source, digest string, opts compile.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "opts=%+v support=%s name=%q src=%x",
		opts, digest, name, sha256.Sum256([]byte(source)))
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// sourceDigest hashes the support sources a runner links from the
// checkout at root: go.mod and every non-test .go file under gobert/ and
// internal/, skipping testdata/. Each file is framed by its path and
// length. The set is a superset of the runner's link graph (it also
// holds this code generator and a few packages no runner imports),
// which can only cost a needless rebuild, never a stale reuse.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	add := func(path string) error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	}
	if err := add(filepath.Join(root, "go.mod")); err != nil {
		return "", err
	}
	for _, dir := range []string{"gobert", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			return add(path)
		})
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func build(root, name, source string, opts compile.Options, key string) (*Runner, error) {
	dir := filepath.Join(cacheRoot(), key)
	bin := filepath.Join(dir, "runner")
	r := &Runner{Name: name, Source: source, Opts: opts, Bin: bin}
	if st, err := os.Stat(bin); err == nil && st.Mode().IsRegular() {
		return r, nil // content-addressed: an existing binary is current
	}
	res, err := compile.SourceCached(name, source, opts)
	if err != nil {
		return nil, err
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("%w (building runner for %s)", ErrNoGoToolchain, name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mainSrc := Generate(res.Prog, name, source, opts)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(mainSrc), 0o644); err != nil {
		return nil, err
	}
	gomod := fmt.Sprintf("module mchplrunner\n\ngo 1.22\n\nrequire repro v0.0.0\n\nreplace repro => %s\n", root)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return nil, err
	}
	// Build to a temp name then rename: concurrent processes racing on
	// the same cache slot each produce a complete binary.
	tmp := bin + fmt.Sprintf(".tmp%d", os.Getpid())
	cmd := exec.Command(goBin, "build", "-o", tmp, ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build of generated runner failed: %v\n%s", err, errb.String())
	}
	if err := os.Rename(tmp, bin); err != nil {
		return nil, err
	}
	return r, nil
}

// cacheRoot is where runner build dirs live: $MCHPL_GOBE_CACHE, else the
// user cache dir, else the system temp dir.
func cacheRoot() string {
	if d := os.Getenv("MCHPL_GOBE_CACHE"); d != "" {
		return d
	}
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "mchpl-gobe")
	}
	return filepath.Join(os.TempDir(), "mchpl-gobe")
}

// moduleRoot locates the repro checkout on disk (for the generated
// runner's replace directive and sourceDigest): $MCHPL_REPO_ROOT, else
// walk up from the working directory to a go.mod whose module directive
// is exactly `repro` — not a nested module such as repro/perfbench.
func moduleRoot() (string, error) {
	if d := os.Getenv("MCHPL_REPO_ROOT"); d != "" {
		return d, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && modulePath(b) == "repro" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("cannot locate the repro module root from %s (set MCHPL_REPO_ROOT)", dir)
		}
		dir = parent
	}
}

// modulePath returns the path a go.mod's module directive declares.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// Exec runs the runner subprocess on one RunSpec.
func (r *Runner) Exec(spec *gobert.RunSpec) (*gobert.Reply, error) {
	in, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(r.Bin)
	cmd.Stdin = bytes.NewReader(in)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	runErr := cmd.Run()
	var reply gobert.Reply
	if err := json.Unmarshal(out.Bytes(), &reply); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("runner failed: %v\n%s", runErr, errb.String())
		}
		return nil, fmt.Errorf("decoding runner reply: %v", err)
	}
	if reply.Err != "" {
		return nil, fmt.Errorf("runner: %s", reply.Err)
	}
	return &reply, nil
}
