// Command writeonly reports the module's production code that production
// does not use: a function or method that no production root reaches, a
// package variable that no reached code names, and a struct field that no
// reached code reads. Run it from the module root:
//
//	go run ./internal/tools/writeonly
//
// Production is each package's GoFiles: every package is type-checked
// without its _test.go files, so code that only a test calls, and a field
// that only a test reads, are reported. The tool builds one use graph, in
// which each use of a function, method, field or package variable of the
// module is tagged with the declaration whose code holds it (a function or
// method body, or a package variable's initializer), and walks it to a
// fixpoint from the roots:
//
//   - main and init functions;
//   - every declaration under benchmark/;
//   - the initializers of blank package variables, and code outside any
//     function or variable declaration (constants, types);
//   - the root package's exported functions, methods and variables, and
//     the exported methods of every type its exported type names alias;
//   - every method that implements a method of an interface named in a
//     module or standard-library package (fmt.Stringer, heap.Interface, a
//     search policy), since a call through the interface may reach it.
//
// A named variable's initializer is reached when the variable is. A field
// is read by every use except an assignment target, the operand of ++/--
// or a key in a keyed composite literal. Skipped fields: those declared
// under benchmark/, exported fields of the root package (callers outside
// the module read them), embedded fields and fields of structs that carry
// struct tags (wire formats are read through reflection).
//
// testdata/writeonly.allow lists reviewed survivors, one per line as
// "file Name reason", Name being F, Type.Method, V or Type.Field; an entry
// that matches no finding is reported too, so the list stays exact. Exits
// 1 on any finding.
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
	"maps"
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

// node is a declaration of the use graph: a function or method, a package
// variable, or a variable declaration's initializer (name "", never
// reported).
type node struct {
	file    string // module-relative
	line    int
	name    string
	uses    []*node
	reached bool
}

// field is one declared struct field and the declarations that read it.
type field struct {
	file    string // module-relative
	line    int
	name    string // Type.Field; "struct.Field" in a type literal
	skip    bool
	readers []*node
}

// graph is the module's use graph.
type graph struct {
	fset   *token.FileSet
	root   string // the module's directory
	nodes  map[types.Object]*node
	fields map[*types.Var]*field
	roots  []*node

	literals []*types.Struct // struct type literals with no twin before them
}

func newGraph(fset *token.FileSet, root string) *graph {
	return &graph{fset: fset, root: root, nodes: map[types.Object]*node{}, fields: map[*types.Var]*field{}}
}

// position returns pos's module-relative file and line.
func (g *graph) position(pos token.Pos) (string, int) {
	p := g.fset.Position(pos)
	rel, _ := filepath.Rel(g.root, p.Filename)
	return filepath.ToSlash(rel), p.Line
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
	fset, checked := token.NewFileSet(), map[string]*types.Package{}
	g := newGraph(fset, root)
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
		g.add(files, info, path == module)
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
	mods := slices.Collect(maps.Values(checked))
	pkgs := slices.Clone(mods)
	for path := range exports {
		p, err := std.Import(path)
		if err != nil {
			log.Fatalf("import %s: %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	g.interfaceRoots(mods, pkgs)
	if p := checked[module]; p != nil {
		g.aliasRoots(p)
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
			log.Fatalf("%s: want \"file Name reason\": %q", allowPath, line)
		}
	}
	found := g.report(allow)
	fmt.Print(strings.Join(found, ""))
	if len(found) > 0 {
		log.Fatalf("%d finding(s)", len(found))
	}
}

// report returns the findings, sorted, after reaching from the roots. An
// entry of allow (keyed "file Name") that names an unreached declaration
// makes it a root, since it was reviewed as kept, and suppresses its
// finding, as an entry naming an unread field does; each entry that
// matched nothing is a finding of its own.
func (g *graph) report(allow map[string]bool) []string {
	g.reach()
	g.roots = g.roots[:0]
	for _, n := range g.nodes {
		if key := n.file + " " + n.name; !n.reached && allow[key] {
			delete(allow, key)
			g.roots = append(g.roots, n)
		}
	}
	g.reach()
	var found []string
	for _, n := range g.nodes {
		if !n.reached && n.name != "" {
			found = append(found, fmt.Sprintf("%s:%d: %s is unreached from production\n", n.file, n.line, n.name))
		}
	}
	seen := map[*field]bool{} // twin literals share one field
	for _, f := range g.fields {
		if seen[f] || f.skip || slices.ContainsFunc(f.readers, func(n *node) bool { return n.reached }) {
			continue
		}
		seen[f] = true
		if key := f.file + " " + f.name; allow[key] {
			delete(allow, key)
		} else {
			found = append(found, fmt.Sprintf("%s:%d: %s is never read\n", f.file, f.line, f.name))
		}
	}
	for key := range allow {
		found = append(found, "writeonly.allow: "+key+" is not a finding\n")
	}
	sort.Strings(found)
	return found
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// add puts one type-checked package's files into the graph (rootPkg marks
// the module's root package): first every function, method, package
// variable and struct field they declare, then every use each declaration's
// code makes of the module's functions, methods, variables and fields.
func (g *graph) add(files []*ast.File, info *types.Info, rootPkg bool) {
	top := &node{} // code outside any function or variable declaration
	g.roots = append(g.roots, top)
	for _, file := range files {
		g.declare(file, info, rootPkg)
	}
	for _, file := range files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				owner := g.nodes[info.Defs[fd.Name]]
				if owner == nil { // init or a blank function: kept for its effects
					owner = top
				}
				g.link(fd, owner, info)
				continue
			}
			gd := d.(*ast.GenDecl)
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || gd.Tok != token.VAR {
					g.link(spec, top, info)
					continue
				}
				init := &node{}
				for _, id := range vs.Names {
					if n := g.nodes[info.Defs[id]]; n != nil {
						n.uses = append(n.uses, init)
					} else {
						g.roots = append(g.roots, init) // blank: kept for its effects
					}
				}
				g.link(vs, init, info)
			}
		}
	}
}

// declare adds the nodes and fields that file declares.
func (g *graph) declare(file *ast.File, info *types.Info, rootPkg bool) {
	decl := func(id *ast.Ident, name string, root bool) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		n := &node{name: name}
		n.file, n.line = g.position(id.Pos())
		g.nodes[obj] = n
		if root || strings.HasPrefix(n.file, "benchmark/") || rootPkg && id.IsExported() {
			g.roots = append(g.roots, n)
		}
	}
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				decl(d.Name, d.Name.Name, d.Name.Name == "init" || d.Name.Name == "main" && file.Name.Name == "main")
			} else {
				decl(d.Name, recvName(d.Recv.List[0].Type)+"."+d.Name.Name, false)
			}
		case *ast.GenDecl:
			if d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					decl(id, id.Name, false)
				}
			}
		}
	}
	owners := map[*ast.StructType]string{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				owners[st] = n.Name.Name
			}
		case *ast.StructType:
			tagged := slices.ContainsFunc(n.Fields.List, func(fl *ast.Field) bool { return fl.Tag != nil })
			var vars []*types.Var
			for _, fl := range n.Fields.List {
				for _, id := range fl.Names {
					if v, ok := info.Defs[id].(*types.Var); ok {
						f := &field{name: cmp.Or(owners[n], "struct") + "." + id.Name}
						f.file, f.line = g.position(id.Pos())
						f.skip = tagged || strings.HasPrefix(f.file, "benchmark/") || v.Exported() && rootPkg
						g.fields[v] = f
						vars = append(vars, v)
					}
				}
			}
			if owners[n] == "" && len(vars) == n.Fields.NumFields() {
				g.twin(vars)
			}
		}
		return true
	})
}

// twin makes the fields of an unembedded struct type literal the fields of
// the first identical literal declared before it: a function that returns
// []struct{...} spells the type twice, once in its signature and once in
// its literal, and a read through either is a read of both.
func (g *graph) twin(vars []*types.Var) {
	st := types.NewStruct(vars, nil)
	for _, prev := range g.literals {
		if types.Identical(st, prev) {
			for i, v := range vars {
				g.fields[v] = g.fields[prev.Field(i)]
			}
			return
		}
	}
	g.literals = append(g.literals, st)
}

// recvName is the name of a method receiver's base type.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// link records each use that the code under decl makes of a declared
// function, method or package variable as an edge from owner, and each
// read of a declared field as owner reading it. Assignment targets, ++/--
// operands and keyed-literal keys write; every other use reads.
func (g *graph) link(decl ast.Node, owner *node, info *types.Info) {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				writes[id] = true // a write only if the key resolves to a field
			}
		case *ast.Ident:
			switch obj := info.Uses[n].(type) {
			case *types.Var:
				if f := g.fields[obj.Origin()]; f != nil && !writes[n] {
					f.readers = append(f.readers, owner)
				} else if m := g.nodes[obj]; m != nil {
					owner.uses = append(owner.uses, m)
				}
			case *types.Func:
				if m := g.nodes[obj.Origin()]; m != nil {
					owner.uses = append(owner.uses, m)
				}
			}
		}
		return true
	})
}

// interfaceRoots makes a root of every method, declared or promoted, by
// which a named type of mods implements an interface named in the scope of
// one of pkgs, or error.
func (g *graph) interfaceRoots(mods, pkgs []*types.Package) {
	byMethod := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() {
			for m := range it.Methods() {
				byMethod[m.Name()] = append(byMethod[m.Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	for _, p := range mods {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			t, ok := tn.Type().(*types.Named)
			if !ok || t.TypeParams() != nil {
				continue // a generic type's methods are checked against no interface
			}
			ptr, seen := types.NewPointer(t), map[*types.Interface]bool{}
			for sel := range types.NewMethodSet(ptr).Methods() {
				for _, it := range byMethod[sel.Obj().Name()] {
					if seen[it] {
						continue
					}
					seen[it] = true
					if !types.Implements(ptr, it) {
						continue
					}
					for m := range it.Methods() {
						obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
						if f, ok := obj.(*types.Func); ok && g.nodes[f.Origin()] != nil {
							g.roots = append(g.roots, g.nodes[f.Origin()])
						}
					}
				}
			}
		}
	}
}

// aliasRoots makes a root of every exported method of a type that one of
// the root package's exported type names stands for: callers outside the
// module call it through the alias.
func (g *graph) aliasRoots(p *types.Package) {
	for _, name := range p.Scope().Names() {
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if t, ok := types.Unalias(tn.Type()).(*types.Named); ok {
			for m := range t.Origin().Methods() {
				if n := g.nodes[m]; n != nil && m.Exported() {
					g.roots = append(g.roots, n)
				}
			}
		}
	}
}

// reach marks every node that a root reaches.
func (g *graph) reach() {
	var stack []*node
	visit := func(n *node) {
		if !n.reached {
			n.reached = true
			stack = append(stack, n)
		}
	}
	for _, n := range g.roots {
		visit(n)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range n.uses {
			visit(m)
		}
	}
}
