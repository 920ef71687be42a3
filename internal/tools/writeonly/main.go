// Command writeonly reports struct fields that the module's code writes
// but never reads: state that costs a store on every path that fills it
// and informs no decision. Run it from the module root:
//
//	go run ./internal/tools/writeonly
//
// A field is written where it is the target of an assignment or of
// ++/--, or a key in a keyed composite literal; every other use reads it.
// Only production code counts: each package is type-checked from its
// GoFiles alone, so a field that only a test reads is reported.
// Skipped: fields declared under benchmark/, exported fields of the root
// package (callers outside the module read them) and fields of structs
// that carry struct tags (wire formats are read through reflection).
// testdata/writeonly.allow lists reviewed survivors, one per line as
// "file Type.Field reason"; an entry that matches no write-only field is
// reported too, so the list stays exact. Exits 1 on any finding.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// goPackage is the part of `go list -json` output the scan reads.
type goPackage struct {
	ImportPath, Dir, Export string
	Standard                bool
	GoFiles                 []string
	Module                  *struct{ Path, Dir string }
}

// field is one declared struct field and its tallies.
type field struct {
	file          string // module-relative
	line          int
	name          string // Type.Field; "struct.Field" in a type literal
	skip          bool
	writes, reads int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("writeonly: ")
	out, err := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,Standard,GoFiles,Module", "./...").Output()
	if err != nil {
		log.Fatalf("go list: %v", err)
	}
	exports, local := map[string]string{}, map[string]*goPackage{}
	var root, module string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(goPackage)
		if err := dec.Decode(p); err != nil {
			log.Fatalf("go list output: %v", err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else if p.Module != nil {
			local[p.ImportPath], root, module = p, p.Module.Dir, p.Module.Path
		}
	}
	fset, t, checked := token.NewFileSet(), map[*types.Var]*field{}, map[string]*types.Package{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	var load importerFunc // checks a package of the module once
	check := func(path string, p *goPackage) *types.Package {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				log.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: load}).Check(path, fset, files, info)
		if err != nil {
			log.Fatalf("type-check %s: %v", path, err)
		}
		count(t, fset, files, info, root, path == module)
		return pkg
	}
	load = func(path string) (*types.Package, error) {
		if p := local[path]; p == nil {
			return std.Import(path)
		} else if checked[path] == nil {
			checked[path] = check(path, p)
		}
		return checked[path], nil
	}
	for path := range local {
		load(path)
	}
	allowPath := filepath.Join(root, "internal/tools/writeonly/testdata/writeonly.allow")
	text, err := os.ReadFile(allowPath)
	if err != nil {
		log.Fatal(err)
	}
	allow := map[string]bool{}
	for _, line := range strings.Split(string(text), "\n") {
		if fs := strings.Fields(line); len(fs) >= 3 {
			allow[fs[0]+" "+fs[1]] = true
		} else if len(fs) > 0 {
			log.Fatalf("%s: want \"file Type.Field reason\": %q", allowPath, line)
		}
	}
	var found []string
	for _, f := range t {
		if key := f.file + " " + f.name; f.skip || f.writes == 0 || f.reads > 0 {
			continue
		} else if allow[key] {
			delete(allow, key)
		} else {
			found = append(found, fmt.Sprintf("%s:%d: %s is written but never read\n", f.file, f.line, f.name))
		}
	}
	for key := range allow {
		found = append(found, "writeonly.allow: "+key+" is not a write-only field\n")
	}
	sort.Strings(found)
	fmt.Print(strings.Join(found, ""))
	if len(found) > 0 {
		log.Fatalf("%d finding(s)", len(found))
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// count declares in t, by generic origin, every named struct field that
// files declare (root is the module's directory; rootPkg marks its root
// package) and tallies each use of a declared field as a write or a read.
func count(t map[*types.Var]*field, fset *token.FileSet, files []*ast.File, info *types.Info, root string, rootPkg bool) {
	writes, owners := map[*ast.Ident]bool{}, map[*ast.StructType]string{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					owners[st] = n.Name.Name
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					target(e)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					writes[id] = true // counted only if the key resolves to a field
				}
			case *ast.StructType:
				tagged := slices.ContainsFunc(n.Fields.List, func(fl *ast.Field) bool { return fl.Tag != nil })
				for _, fl := range n.Fields.List {
					for _, id := range fl.Names {
						if v, ok := info.Defs[id].(*types.Var); ok {
							pos := fset.Position(id.Pos())
							rel, _ := filepath.Rel(root, pos.Filename)
							rel = filepath.ToSlash(rel)
							t[v] = &field{file: rel, line: pos.Line, name: cmp.Or(owners[n], "struct") + "." + id.Name,
								skip: tagged || strings.HasPrefix(rel, "benchmark/") || v.Exported() && rootPkg}
						}
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && t[v.Origin()] != nil {
			if f := t[v.Origin()]; writes[id] {
				f.writes++
			} else {
				f.reads++
			}
		}
	}
}
