package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestCountClassifiesUses pins the write/read rule on one source file:
// assignment targets, ++/-- and keyed-literal keys write, everything
// else reads, a generic instance's field counts on its origin, a tagged
// struct's fields are skipped, and two identical struct type literals
// (a result type and the literal returned) share their fields.
func TestCountClassifiesUses(t *testing.T) {
	const src = "package p\n" +
		"type T struct{ w, r, kv, inc, both int }\n" +
		"type W struct{ x int `json:\"x\"` }\n" +
		"type G[E any] struct{ g E }\n" +
		"func f(x *T) int {\n" +
		"	x.w = 1\n" +
		"	x.inc++\n" +
		"	_ = T{kv: 1}\n" +
		"	x.both = x.r\n" +
		"	x.both += 1\n" +
		"	_ = W{x: 1}\n" +
		"	var g G[int]\n" +
		"	g.g = 2\n" +
		"	return x.both\n" +
		"}\n" +
		"func pairs() []struct{ a int } { return []struct{ a int }{{1}} }\n" +
		"func first() int { return pairs()[0].a }\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "/m/p/p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	if _, err := new(types.Config).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	g := newGraph(fset, "/m")
	g.add([]*ast.File{f}, info, false)
	want := map[string][2]bool{ // read, skip
		"T.w": {false, false}, "T.r": {true, false}, "T.kv": {false, false}, "T.inc": {false, false},
		"T.both": {true, false}, "W.x": {false, true}, "G.g": {false, false}, "struct.a": {true, false},
	}
	distinct := map[*field]bool{}
	for _, fl := range g.fields {
		distinct[fl] = true
	}
	if len(distinct) != len(want) {
		t.Fatalf("declared %d fields, want %d", len(distinct), len(want))
	}
	for _, fl := range g.fields {
		if got := [2]bool{len(fl.readers) > 0, fl.skip}; got != want[fl.name] || fl.file != "p/p.go" {
			t.Errorf("%s %s: read, skip = %v, want %v", fl.file, fl.name, got, want[fl.name])
		}
	}
}

// TestProductionReadsOnly pins what production reaches, on a module of its
// own whose main calls New and Read:
//   - a field that production writes and only a _test.go file reads, in
//     package or external, is reported (T.tested, T.Ext);
//   - a function that only a test calls is reported (Tested), and so is a
//     function only it calls (helper), and a field only it reads (T.dead);
//   - a method that implements a standard-library interface (T.String,
//     fmt.Stringer) or a module one (Sq.Area, Shape) is not, nor is the
//     root package's exported API;
//   - an allow-listed function is not reported and is a root (Kept, kept),
//     and an allow entry that names no finding is reported.
func TestProductionReadsOnly(t *testing.T) {
	dir := t.TempDir()
	tool := filepath.Join(dir, "writeonly")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	mod := filepath.Join(dir, "m")
	for name, src := range map[string]string{
		"go.mod":        "module m\n\ngo 1.24\n",
		"m.go":          "package m\nfunc API() int { return 1 }\n",
		"cmd/m/main.go": "package main\nimport (\"fmt\"; \"m/p\")\nfunc main() { fmt.Println(p.New().Read()) }\n",
		"p/p.go": "package p\ntype T struct{ read, tested, Ext, dead int }\n" +
			"func New() T { return T{read: 1, tested: 2, Ext: 3, dead: 4} }\n" +
			"func (x T) Read() int { return x.read }\n" +
			"func (x T) String() string { return \"t\" }\n" +
			"type Shape interface{ Area() int }\ntype Sq struct{}\nfunc (Sq) Area() int { return 4 }\n",
		"p/q.go": "package p\nfunc Tested() int { return helper() + New().dead }\nfunc helper() int { return 1 }\n" +
			"func Kept() int { return kept() }\nfunc kept() int { return 2 }\n",
		"p/p_test.go":   "package p\nimport \"testing\"\nfunc TestT(t *testing.T) { _ = New().tested + Tested() }\n",
		"p/ext_test.go": "package p_test\nimport (\"testing\"; \"m/p\")\nfunc TestExt(t *testing.T) { _ = p.New().Ext }\n",
		"internal/tools/writeonly/testdata/writeonly.allow": "p/q.go Kept reviewed: kept for a caller outside production\n" +
			"p/p.go Gone deleted since it was reviewed\n",
	} {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := exec.Command(tool)
	run.Dir = mod
	out, err := run.Output()
	if err == nil {
		t.Error("writeonly exited 0 on a module with test-only code")
	}
	want := "p/p.go:2: T.Ext is never read\n" +
		"p/p.go:2: T.dead is never read\n" +
		"p/p.go:2: T.tested is never read\n" +
		"p/q.go:2: Tested is unreached from production\n" +
		"p/q.go:3: helper is unreached from production\n" +
		"writeonly.allow: p/p.go Gone is not a finding\n"
	if string(out) != want {
		t.Errorf("writeonly reported\n%s\nwant\n%s", out, want)
	}
}
