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
// else reads, a generic instance's field counts on its origin, and a
// tagged struct's fields are skipped.
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
		"}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "/m/p/p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	if _, err := new(types.Config).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	fields := map[*types.Var]*field{}
	count(fields, fset, []*ast.File{f}, info, "/m", false)
	want := map[string][3]int{ // writes, reads, skip
		"T.w": {1, 0, 0}, "T.r": {0, 1, 0}, "T.kv": {1, 0, 0}, "T.inc": {1, 0, 0},
		"T.both": {2, 1, 0}, "W.x": {1, 0, 1}, "G.g": {1, 0, 0},
	}
	if len(fields) != len(want) {
		t.Fatalf("declared %d fields, want %d", len(fields), len(want))
	}
	for _, fl := range fields {
		skip := 0
		if fl.skip {
			skip = 1
		}
		if got := [3]int{fl.writes, fl.reads, skip}; got != want[fl.name] || fl.file != "p/p.go" {
			t.Errorf("%s %s: writes, reads, skip = %v, want %v", fl.file, fl.name, got, want[fl.name])
		}
	}
}

// TestProductionReadsOnly pins the definition of a read on a module of
// its own: a field that production writes and only a _test.go file reads,
// in-package or external, is reported; a field production reads is not.
func TestProductionReadsOnly(t *testing.T) {
	dir := t.TempDir()
	tool := filepath.Join(dir, "writeonly")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	mod := filepath.Join(dir, "m")
	for name, src := range map[string]string{
		"go.mod":        "module m\n\ngo 1.24\n",
		"p/p.go":        "package p\ntype T struct{ read, tested, Ext int }\nfunc New() T { return T{read: 1, tested: 2, Ext: 3} }\nfunc (x T) Read() int { return x.read }\n",
		"p/p_test.go":   "package p\nimport \"testing\"\nfunc TestT(t *testing.T) { _ = New().tested }\n",
		"p/ext_test.go": "package p_test\nimport (\"testing\"; \"m/p\")\nfunc TestExt(t *testing.T) { _ = p.New().Ext }\n",
		"internal/tools/writeonly/testdata/writeonly.allow": "",
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
		t.Error("writeonly exited 0 on a module with test-only reads")
	}
	want := "p/p.go:2: T.Ext is written but never read\np/p.go:2: T.tested is written but never read\n"
	if string(out) != want {
		t.Errorf("writeonly reported\n%s\nwant\n%s", out, want)
	}
}
