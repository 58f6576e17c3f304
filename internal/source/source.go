// Package source manages MiniChapel source files and positions.
//
// It plays the role of the DWARF file/line table in the paper's pipeline:
// every IR instruction carries a Pos that resolves back to a file, line and
// column, and the post-mortem step uses this mapping to convert raw sampled
// addresses into source coordinates.
package source

import (
	"fmt"
	"sort"
	"strings"
)

// Pos is a compact reference to a location in some registered file.
// The zero Pos is "no position".
type Pos struct {
	// FileID indexes into a FileSet; 0 means no file.
	FileID int32
	Line   int32
	Col    int32
}

// NoPos is the zero position.
var NoPos = Pos{}

// IsValid reports whether p refers to an actual location.
func (p Pos) IsValid() bool { return p.FileID != 0 && p.Line > 0 }

// Before reports whether p is strictly before q in the same file.
func (p Pos) Before(q Pos) bool {
	if p.FileID != q.FileID {
		return p.FileID < q.FileID
	}
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

// File is a single registered source file.
type File struct {
	ID   int32
	Name string
	Src  string

	lineOffsets []int // byte offset of the start of each line (0-based line index)
}

// NewFile builds a File with the given name and content. Files are normally
// created through a FileSet; NewFile exists for tests that need a loose file.
func NewFile(id int32, name, src string) *File {
	f := &File{ID: id, Name: name, Src: src}
	f.lineOffsets = append(f.lineOffsets, 0)
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			f.lineOffsets = append(f.lineOffsets, i+1)
		}
	}
	return f
}

// PosFor converts a byte offset into a Pos.
func (f *File) PosFor(offset int) Pos {
	if offset < 0 {
		offset = 0
	}
	if offset > len(f.Src) {
		offset = len(f.Src)
	}
	// Find the last line start <= offset.
	i := sort.Search(len(f.lineOffsets), func(i int) bool { return f.lineOffsets[i] > offset }) - 1
	return Pos{FileID: f.ID, Line: int32(i + 1), Col: int32(offset - f.lineOffsets[i] + 1)}
}

// Line returns the text of the 1-based line n, without the trailing newline.
func (f *File) Line(n int) string {
	if n < 1 || n > len(f.lineOffsets) {
		return ""
	}
	start := f.lineOffsets[n-1]
	end := len(f.Src)
	if n < len(f.lineOffsets) {
		end = f.lineOffsets[n] - 1
	}
	return strings.TrimRight(f.Src[start:end], "\r")
}

// FileSet registers files and renders positions.
type FileSet struct {
	files []*File // files[i] has ID i+1
}

// NewFileSet returns an empty file set.
func NewFileSet() *FileSet { return &FileSet{} }

// Add registers a new file and returns it.
func (s *FileSet) Add(name, src string) *File {
	f := NewFile(int32(len(s.files)+1), name, src)
	s.files = append(s.files, f)
	return f
}

// File returns the file with the given ID, or nil.
func (s *FileSet) File(id int32) *File {
	if id < 1 || int(id) > len(s.files) {
		return nil
	}
	return s.files[id-1]
}

// FileOf returns the file containing p, or nil.
func (s *FileSet) FileOf(p Pos) *File { return s.File(p.FileID) }

// Position renders p as "name:line:col". Invalid positions render as "-".
func (s *FileSet) Position(p Pos) string {
	if !p.IsValid() {
		return "-"
	}
	f := s.File(p.FileID)
	if f == nil {
		return fmt.Sprintf("?:%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", f.Name, p.Line, p.Col)
}

// Span is a half-open range of source text within one file.
type Span struct {
	Start, End Pos
}

// IsValid reports whether the span has a valid start.
func (s Span) IsValid() bool { return s.Start.IsValid() }

// Contains reports whether p lies within the span (line granularity).
func (s Span) Contains(p Pos) bool {
	if !s.IsValid() || !p.IsValid() || s.Start.FileID != p.FileID {
		return false
	}
	return !p.Before(s.Start) && (p.Before(s.End) || p == s.End)
}
