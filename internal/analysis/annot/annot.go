// Package annot parses the //pbist:* source annotations that drive
// the pbistvet analyzers. An annotation is a directive-style comment
// (no space after //, so gofmt leaves it alone), either attached to a
// declaration's doc comment or placed on/above the statement it
// governs:
//
//	//pbist:owner          — this scratch borrow deliberately transfers
//	                         ownership (stored, returned, or handed to
//	                         another goroutine); arenapair and noescape
//	                         stop tracking it. On a func declaration it
//	                         covers every borrow in the function.
//	//pbist:releases       — calls to this function release the scratch
//	                         buffers passed as arguments (a Put
//	                         wrapper); arenapair treats its slice
//	                         arguments as returned.
//	//pbist:noalloc        — this function's body must contain no
//	                         allocating constructs; enforced by the
//	                         noalloc analyzer.
//	//pbist:combiner       — this function runs while its goroutine
//	                         holds the combiner role; it may touch
//	                         combiner-confined fields.
//	//pbist:guardedby combiner — this struct field is combiner-confined:
//	                         only //pbist:combiner functions may access
//	                         it (combinerguard).
//
// The vocabulary is closed: unknown //pbist: annotations are reported
// by every analyzer that encounters one, so a typo cannot silently
// disable a check.
package annot

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix is the directive comment prefix of every pbist annotation.
const Prefix = "//pbist:"

// Known annotation verbs.
const (
	Owner     = "owner"
	Releases  = "releases"
	NoAlloc   = "noalloc"
	Combiner  = "combiner"
	GuardedBy = "guardedby" // takes one argument: the guard name
)

// known reports whether verb is in the closed vocabulary.
func known(verb string) bool {
	switch verb {
	case Owner, Releases, NoAlloc, Combiner, GuardedBy:
		return true
	}
	return false
}

// Annotation is one parsed //pbist: directive.
type Annotation struct {
	Verb string
	Arg  string // first token after the verb, "" if none
	Pos  token.Pos
}

// parse extracts the annotation from one comment, if any.
func parse(c *ast.Comment) (Annotation, bool) {
	text, ok := strings.CutPrefix(c.Text, Prefix)
	if !ok {
		return Annotation{}, false
	}
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return Annotation{Verb: "", Pos: c.Pos()}, true
	}
	a := Annotation{Verb: fields[0], Pos: c.Pos()}
	if len(fields) > 1 {
		a.Arg = fields[1]
	}
	return a, true
}

// InGroup reports whether doc (which may be nil) carries the verb.
func InGroup(doc *ast.CommentGroup, verb string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if a, ok := parse(c); ok && a.Verb == verb {
			return true
		}
	}
	return false
}

// GroupArg returns the argument of the verb's annotation in doc, with
// ok reporting whether the annotation is present at all.
func GroupArg(doc *ast.CommentGroup, verb string) (arg string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if a, okc := parse(c); okc && a.Verb == verb {
			return a.Arg, true
		}
	}
	return "", false
}

// File indexes every pbist annotation of one source file by line, so
// statement-level lookups ("is the Get on line 42 marked owner?") are
// O(1).
type File struct {
	fset    *token.FileSet
	byLine  map[int][]Annotation
	unknown []Annotation
}

// NewFile scans file's comments (doc comments included — a func-level
// annotation is also a line annotation of its own line, which is
// harmless) and indexes the pbist directives.
func NewFile(fset *token.FileSet, file *ast.File) *File {
	af := &File{fset: fset, byLine: make(map[int][]Annotation)}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			a, ok := parse(c)
			if !ok {
				continue
			}
			if !known(a.Verb) {
				af.unknown = append(af.unknown, a)
				continue
			}
			line := fset.Position(c.Pos()).Line
			af.byLine[line] = append(af.byLine[line], a)
		}
	}
	return af
}

// Unknown returns the malformed or unrecognized pbist annotations of
// the file, for analyzers to report.
func (af *File) Unknown() []Annotation { return af.unknown }

// MarkedAt reports whether pos's line carries the verb, either as a
// trailing comment on the same line or as a standalone comment on the
// line directly above.
func (af *File) MarkedAt(pos token.Pos, verb string) bool {
	line := af.fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		for _, a := range af.byLine[l] {
			if a.Verb == verb {
				return true
			}
		}
	}
	return false
}
