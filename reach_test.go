package vransim_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed lists the declarations that no binary, example or
// benchmark reaches but that stay, each with the tests that read it: a
// reference a test checks the real code against, or an accessor a test
// reads through. What only these reach (transport.Parse's helpers) needs
// no entry of its own. Nothing else may be unreached.
var unreachedAllowed = map[string]string{
	// References.
	"core.ArrangeReference":       "the scalar arrangement TestArrangementEquivalenceProperty checks every strategy against",
	"program.(*Program).Checksum": "the digest of a program's bytes TestEveryServedKeyCompiles and TestSharedProgramIsImmutable pin",
	"program.numRecordKinds":      "the record-kind count TestEveryFusedKindOccurs walks",
	"transport.Parse":             "the receive side TestUDPPacketRoundTrip, TestParseRejectsCorruption and FuzzParse check the generator against",
	"turbo.(*QPP).InvPerm":        "the inverse TestQPPBijective checks the interleaver against",
	"l2.Scheduler":                "the grant source ROADMAP item 12 names; TestSchedulerRoundRobin reads it",
	"l2.(*Scheduler).NextGrant":   "the grant source ROADMAP item 12 names; TestSchedulerRoundRobin reads it",

	// Accessors.
	"phy.(*ProcessSet).Attempts":          "TestProcessSetCombine and TestProcessSetExportInject read a buffer's attempts",
	"pipeline.(*Result).Stage":            "TestUplinkStagesPresent and TestDownlinkPacketSurvives read a stage by name",
	"program.(*Program).GatherPool":       "TestEmittedDecodesLikeInterpreter bounds the gather pool",
	"program.(*Program).Width":            "TestReplayMatchesInterpreter reads a program's width",
	"ran.(*Runtime).Sealed":               "TestDrainCellCapturesInflight and TestDrainTimeoutAborts read a cell's seal",
	"ran.(*Runtime).Submit":               "TestConcurrentSubmitConservation and the other runtime tests submit without a trace context",
	"ran.(*WordPool).Len":                 "TestDecodeMatchesSingleAndTruth and TestWordPoolCRC24B read the pool size",
	"simd.(*Engine).FreeVecs":             "TestAcquireVecSemantics and TestReleaseVecBounded read the free list",
	"simd.(*Memory).ReadI16s":             "TestFigure10WorkedExample and TestPExtrWToMem read arranged memory",
	"telemetry.(*Tracer).SpanCount":       "TestTracerSpansThroughRuntime and TestFleetTraceEndToEnd count recorded spans",
	"transport.(*BurstyProcess).MeanRate": "TestBurstyLongRunMean and TestBurstyIsBurstier read the long-run mean",
	"turbo.(*BatchDecoder).Plans":         "TestBatchDecoderReuse counts a decoder's plans",
	"turbo.(*Codeword).Bits":              "TestCodewordBits reads the transmitted-bit count",
	"uarch.Config.IdealIPC":               "TestIdealIPCByClass reads the port-limited ceiling",
}

// TestEveryDeclarationHasAReader walks the code from the programs of the
// repository — every main package under cmd/ and examples/, and the
// benchmark — and fails on a non-test declaration none of them reaches
// that unreachedAllowed does not list, and on an entry of
// unreachedAllowed that a program reaches, that is no longer declared,
// or whose reading test does not name it. The roots are the main and init
// functions and the initializers of blank package-level variables; a
// declaration is reached when reached code names it. A method is reached
// when its receiver type is and either reached code names it or the type
// implements an interface (one the module declares or a package it
// imports does, or error) that has a method of its name.
func TestEveryDeclarationHasAReader(t *testing.T) {
	pkgs := listProgramPackages(t, ".", "./cmd/...", "./examples/...")
	pkgs = append(pkgs, listProgramPackages(t, "benchmark", ".")...)
	w := newReachWalk(t, pkgs)
	w.run()
	byPrograms := make(map[types.Object]bool, len(w.reached))
	for obj := range w.reached {
		byPrograms[obj] = true
	}
	for key := range unreachedAllowed {
		if decl, ok := w.decls[key]; ok {
			w.mark(decl.obj)
		}
	}
	w.run()

	var unreached []string
	for key, decl := range w.decls {
		if !w.reached[decl.obj] {
			unreached = append(unreached, fmt.Sprintf("%s (%s, %d lines)", key, decl.pos, decl.lines))
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d declarations no binary, example or benchmark reaches; delete them, or list one a test reads in unreachedAllowed:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}

	tests := testFuncFiles(t)
	testName := regexp.MustCompile(`\b(Test|Fuzz)\w+`)
	for key, reason := range unreachedAllowed {
		decl, ok := w.decls[key]
		switch {
		case !ok:
			t.Errorf("unreachedAllowed lists %s, which is no longer declared", key)
			continue
		case byPrograms[decl.obj]:
			t.Errorf("unreachedAllowed lists %s, which a program reaches", key)
		}
		names := testName.FindAllString(reason, -1)
		if len(names) == 0 {
			t.Errorf("unreachedAllowed gives %s no reading test", key)
		}
		ident := regexp.MustCompile(`\b` + key[strings.LastIndex(key, ".")+1:] + `\b`)
		for _, name := range names {
			dir, ok := tests[name]
			if !ok {
				t.Errorf("unreachedAllowed names %s as a reader of %s, and no test file declares it", name, key)
			} else if !testFilesName(t, dir, ident) {
				t.Errorf("unreachedAllowed names %s as a reader of %s, and no test file of %s names it", name, key, dir)
			}
		}
	}
}

// listedPackage is what the walk needs of one entry of go list -json.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
}

// listProgramPackages runs go list -deps -export in dir over patterns and
// returns every package the programs link, dependencies first.
func listProgramPackages(t *testing.T, dir string, patterns ...string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// testFuncFiles maps each Test and Fuzz function of the repository's
// test files to the directory that declares it.
func testFuncFiles(t *testing.T) map[string]string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	dirs := make(map[string]string)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(b, -1) {
			dirs[string(m[1])] = filepath.Dir(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// testFilesName reports whether a test file of dir names ident.
func testFilesName(t *testing.T, dir string, ident *regexp.Regexp) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if ident.Match(b) {
			return true
		}
	}
	return false
}

// reachDecl is one package-level declaration of the module.
type reachDecl struct {
	obj   types.Object
	pos   string
	lines int
	root  bool
	uses  []types.Object
}

type reachWalk struct {
	decls   map[string]*reachDecl
	byObj   map[types.Object]*reachDecl
	methods map[*types.TypeName][]*types.Func
	ifaces  map[string][]*types.Interface // by method name
	named   map[*types.Func]bool          // methods reached code names
	reached map[types.Object]bool
	queue   []types.Object
}

// newReachWalk type-checks the module's packages from source, importing
// the standard library from its export data, and records every
// package-level declaration with the module objects its syntax names.
func newReachWalk(t *testing.T, listed []listedPackage) *reachWalk {
	w := &reachWalk{
		decls:   make(map[string]*reachDecl),
		byObj:   make(map[types.Object]*reachDecl),
		methods: make(map[*types.TypeName][]*types.Func),
		ifaces:  make(map[string][]*types.Interface),
		named:   make(map[*types.Func]bool),
		reached: make(map[types.Object]bool),
	}
	fset := token.NewFileSet()
	export := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			export[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := export[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range listed {
		if p.Standard || checked[p.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		prefix := p.Name
		if p.Name == "main" {
			rel, err := filepath.Rel(root, p.Dir)
			if err != nil {
				t.Fatal(err)
			}
			prefix = filepath.ToSlash(rel)
		}
		for _, f := range files {
			w.addFile(fset, info, prefix, f)
		}
		for _, tv := range info.Types {
			w.addInterface(tv.Type)
		}
	}
	seen := make(map[*types.Package]bool)
	var walkImports func(*types.Package)
	walkImports = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				w.addInterface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walkImports(q)
		}
	}
	for _, p := range checked {
		walkImports(p)
	}
	w.addInterface(types.Universe.Lookup("error").Type())
	return w
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (w *reachWalk) addInterface(typ types.Type) {
	if typ == nil {
		return
	}
	iface, ok := typ.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		if !slices.Contains(w.ifaces[name], iface) {
			w.ifaces[name] = append(w.ifaces[name], iface)
		}
	}
}

// addFile records each package-level declaration of f.
func (w *reachWalk) addFile(fset *token.FileSet, info *types.Info, prefix string, f *ast.File) {
	add := func(ident *ast.Ident, node ast.Node, root bool) {
		obj := info.Defs[ident]
		if obj == nil || ident.Name == "_" && !root {
			return
		}
		start, end := fset.Position(node.Pos()), fset.Position(node.End())
		d := &reachDecl{obj: obj, pos: fmt.Sprintf("%s:%d", filepath.Base(start.Filename), start.Line), lines: end.Line - start.Line + 1, root: root}
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u := info.Uses[id]; u != nil && u.Pkg() != nil {
					d.uses = append(d.uses, u)
				}
			}
			return true
		})
		w.byObj[obj] = d
		if ident.Name == "_" || ident.Name == "init" {
			return
		}
		key := prefix + "." + ident.Name
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				tn, ptr := receiverTypeName(recv.Type())
				w.methods[tn] = append(w.methods[tn], fn)
				if ptr {
					key = fmt.Sprintf("%s.(*%s).%s", prefix, tn.Name(), ident.Name)
				} else {
					key = fmt.Sprintf("%s.%s.%s", prefix, tn.Name(), ident.Name)
				}
			}
		}
		w.decls[key] = d
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			root := decl.Recv == nil && (decl.Name.Name == "init" || decl.Name.Name == "main" && f.Name.Name == "main")
			add(decl.Name, decl, root)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, spec, false)
				case *ast.ValueSpec:
					// A blank var's initializer runs at start-up for its
					// effect alone; any other var or constant is reached
					// only when named.
					for _, name := range spec.Names {
						add(name, spec, decl.Tok == token.VAR && name.Name == "_")
					}
				}
			}
		}
	}
}

// receiverTypeName returns the named type of a method's receiver and
// whether the receiver is a pointer.
func receiverTypeName(t types.Type) (*types.TypeName, bool) {
	ptr := false
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), true
	}
	return t.(*types.Named).Origin().Obj(), ptr
}

func (w *reachWalk) run() {
	for obj, d := range w.byObj {
		if d.root {
			w.mark(obj)
		}
	}
	for len(w.queue) > 0 {
		obj := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		for _, u := range w.byObj[obj].uses {
			w.use(u)
		}
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range w.methods[tn] {
				if w.named[m] || w.satisfies(tn, m) {
					w.mark(m)
				}
			}
		}
	}
}

func (w *reachWalk) mark(obj types.Object) {
	if w.reached[obj] || w.byObj[obj] == nil {
		return
	}
	w.reached[obj] = true
	w.queue = append(w.queue, obj)
}

func (w *reachWalk) use(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
				return
			}
			w.named[fn] = true
			if tn, _ := receiverTypeName(recv.Type()); w.reached[tn] {
				w.mark(fn)
			}
			return
		}
		obj = fn
	}
	if v, ok := obj.(*types.Var); ok {
		obj = v.Origin()
	}
	w.mark(obj)
}

// satisfies reports whether the receiver type of m implements an
// interface that has a method of m's name.
func (w *reachWalk) satisfies(tn *types.TypeName, m *types.Func) bool {
	named := tn.Type().(*types.Named)
	for _, iface := range w.ifaces[m.Name()] {
		if named.TypeParams().Len() > 0 ||
			types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}
