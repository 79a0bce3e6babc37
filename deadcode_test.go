//go:build deadcode

package repro

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestProductionCodeIsLinked fails when a function or method declared
// in non-test code outside bench/ is linked into none of the binaries:
// the three commands and the benchmark. They are built with inlining
// off (-gcflags=all=-l), so a called function keeps its own symbol, and
// the linker has already dropped everything unreachable; what remains
// unlinked is code only tests run. The exceptions are the pubsub API's
// reach (linkedByAPI): pubsub re-exports internal types as aliases, so
// their methods are public API a program may call though none here
// does.
//
// Run it with: go test -tags deadcode -run TestProductionCodeIsLinked .
func TestProductionCodeIsLinked(t *testing.T) {
	dir := t.TempDir()
	build := func(args ...string) {
		cmd := exec.Command("go", args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	build("build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator),
		"./cmd/experiments", "./cmd/frugalsim", "./cmd/loadgen")
	build("build", "-C", "bench", "-gcflags=all=-l", "-o", filepath.Join(dir, "bench"), ".")

	linked := map[string]bool{}
	for _, bin := range []string{"experiments", "frugalsim", "loadgen", "bench"} {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, bin)).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			// "address type name"; a generic shape's name holds spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				sym := f[2]
				if bin != "bench" && strings.HasPrefix(sym, "main.") {
					sym = "repro/cmd/" + bin + sym[len("main"):]
				}
				if name, ok := symbolFunc(sym); ok {
					linked[name] = true
				}
			}
		}
	}

	var unlinked []string
	for _, d := range declaredFuncs(t) {
		if !linked[d.name] && linkedByAPI[d.name] == "" {
			unlinked = append(unlinked, d.pos+": "+d.name)
		}
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("linked into no binary: %s", u)
	}
	for name := range linkedByAPI {
		if linked[name] {
			t.Errorf("allowlisted %s is linked: drop it from linkedByAPI", name)
		}
	}
}

// linkedByAPI names the functions no binary links that the pubsub
// package still exposes, each with its route: pubsub's own API, and
// the methods its aliases (Topic, Event, Message, MetricsRegistry) and
// its Node's wrappers reach.
var linkedByAPI = map[string]string{
	"repro/pubsub.NewMetricsRegistry": "pubsub API",
	"repro/pubsub.NewUDPNode":         "pubsub API",
	"repro/pubsub.Node.HasEvent":      "pubsub API",
	"repro/pubsub.Node.RemovePeer":    "pubsub API",
	"repro/pubsub.Node.Peers":         "pubsub API",
	"repro/pubsub.ParseTopic":         "pubsub API",
	"repro/pubsub.RootTopic":          "pubsub API",
	"repro/pubsub.Marshal":            "pubsub API",
	"repro/pubsub.Unmarshal":          "pubsub API",

	"repro/internal/core.Protocol.HasEvent":   "pubsub.Node.HasEvent",
	"repro/internal/transport.UDP.RemovePeer": "pubsub.Node.RemovePeer",
	"repro/internal/transport.UDP.Peers":      "pubsub.Node.Peers",
	"repro/internal/event.Marshal":            "pubsub.Marshal",
	"repro/internal/event.Event.Expired":      "pubsub.Event",
	"repro/internal/event.Heartbeat.Sender":   "pubsub.Message (an interface method)",
	"repro/internal/event.IDList.Sender":      "pubsub.Message (an interface method)",
	"repro/internal/event.Events.Sender":      "pubsub.Message (an interface method)",
	"repro/internal/topic.Topic.Parent":       "pubsub.Topic",
	"repro/internal/topic.Topic.Segments":     "pubsub.Topic",
	"repro/internal/topic.Topic.Depth":        "pubsub.Topic",
	"repro/internal/obs.Registry.Snapshot":    "pubsub.MetricsRegistry",
	"repro/internal/metrics.LogHist.Merge":    "pubsub.MetricsRegistry: Registry.Snapshot holds LogHists",
	"repro/internal/metrics.LogHist.Mean":     "pubsub.MetricsRegistry: Registry.Snapshot holds LogHists",
}

// shapeArgs matches a generic instantiation's type arguments.
var shapeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// closureSuffix matches what the compiler appends to a function's
// symbol for its closures, method values, deferred and go-statement
// wrappers (.func1, .func1.2, -fm, .deferwrap1, .gowrap1).
var closureSuffix = regexp.MustCompile(`(\.func\d+|\.\d+|\.deferwrap\d+|\.gowrap\d+|-fm)+$`)

// symbolFunc maps a linker symbol to the declared function it belongs
// to, as "importpath.Func" or "importpath.Type.Method"; ok is false for
// symbols outside this module.
func symbolFunc(sym string) (string, bool) {
	if !strings.HasPrefix(sym, "repro/") {
		return "", false
	}
	for strings.Contains(sym, "[") {
		s := shapeArgs.ReplaceAllString(sym, "")
		if s == sym {
			break
		}
		sym = s
	}
	// The package path ends at the first dot after its last slash.
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash:], ".")
	if dot < 0 {
		return "", false
	}
	pkg, rest := sym[:slash+dot], sym[slash+dot+1:]
	if strings.HasPrefix(rest, "init.") {
		// The compiler numbers a package's init functions.
		return pkg + ".init", true
	}
	rest = closureSuffix.ReplaceAllString(rest, "")
	rest = strings.NewReplacer("(*", "", "(", "", ")", "").Replace(rest)
	return pkg + "." + rest, true
}

// decl is one function or method declared in non-test code.
type decl struct{ name, pos string }

// declaredFuncs lists every function and method declared in the
// module's non-test files outside bench/, named as symbolFunc names
// them. A package's init functions share one name.
func declaredFuncs(t *testing.T) []decl {
	t.Helper()
	var out []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			out = append(out, decl{name: pkg + "." + name, pos: fset.Position(fn.Pos()).String()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvName returns a receiver's base type name: T for T, *T, T[K] and
// *T[K, V].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
