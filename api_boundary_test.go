package boomsim_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"boomsim"
)

// TestConsumersUseOnlyThePublicAPI pins the api boundary: the binaries in
// cmd/, the programs in examples/, the boomsimd service layer in
// internal/server and the cluster coordinator in internal/cluster must
// consume the simulator through the public boomsim package, never by
// reaching into the internal simulation layers. Lower-level packages
// (program, isa, ...) stay importable for tools that inspect the workload
// substrate directly, such as boomtrace; the three banned packages are the
// ones the public API wraps. The examples show the public API alone, and
// cmd/boomsim runs locally and with -remote on it alone (RunMatrix,
// NewCluster), so neither may import an internal package at all: in the
// CLI that would let a second way of writing wire requests back in.
func TestConsumersUseOnlyThePublicAPI(t *testing.T) {
	banned := []string{
		"boomsim/internal/sim",
		"boomsim/internal/scheme",
		"boomsim/internal/workload",
	}
	publicOnly := func(path string) bool {
		return slices.ContainsFunc([]string{"examples", filepath.Join("cmd", "boomsim")}, func(dir string) bool {
			return strings.HasPrefix(path, dir+string(filepath.Separator))
		})
	}
	for _, root := range []string{"cmd", "examples", "internal/server", "internal/cluster"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if strings.HasPrefix(ip, "boomsim/internal/") && publicOnly(path) {
					t.Errorf("%s imports %s; it uses only the public boomsim package", path, ip)
					continue
				}
				for _, b := range banned {
					if ip == b {
						t.Errorf("%s imports %s; consume the public boomsim API instead", path, ip)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", root, err)
		}
	}
}

// TestSchemeConfigIsPureData pins the config plane's core property: a
// SchemeConfig (and everything reachable from it) is plain serializable
// data — no functions, channels, interfaces or unsafe pointers anywhere in
// the type graph. This is what guarantees schemes round-trip through JSON,
// travel on the wire, and can never smuggle a closure back in; a `Build
// func` field reappearing on any config struct fails here.
func TestSchemeConfigIsPureData(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var check func(path string, ty reflect.Type)
	check = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s has kind %s; scheme configs must be pure data", path, ty.Kind())
		case reflect.Pointer, reflect.Slice, reflect.Array:
			check(path, ty.Elem())
		case reflect.Map:
			check(path+"(key)", ty.Key())
			check(path+"(value)", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		}
	}
	check("SchemeConfig", reflect.TypeOf(boomsim.SchemeConfig{}))
}

// TestServerSpeaksPublicAPIAndWireOnly pins boomsimd's side of the
// cluster↔server contract: internal/server may depend, module-internally,
// on nothing but the public boomsim package, the shared wire vocabulary,
// the durable result store under its cache and the memo leaf the cache is
// built on — in particular never on internal/cluster, so the service and
// the coordinator only ever meet over HTTP with wire-typed bodies.
func TestServerSpeaksPublicAPIAndWireOnly(t *testing.T) {
	allowed := map[string]bool{
		"boomsim":                true,
		"boomsim/internal/wire":  true,
		"boomsim/internal/store": true,
		"boomsim/internal/memo":  true,
	}
	err := filepath.WalkDir("internal/server", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if (ip == "boomsim" || strings.HasPrefix(ip, "boomsim/")) && !allowed[ip] {
				t.Errorf("%s imports %s; internal/server may only use the standard library, the public boomsim package and boomsim/internal/{wire,store,memo}", path, ip)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking internal/server: %v", err)
	}
}

// TestClusterSpeaksOnlyWireTypes pins the coordinator's tighter contract:
// internal/cluster may depend, module-internally, on nothing but the shared
// wire vocabulary and the leaf observability plane (spans and slog helpers
// with no boomsim dependencies of their own). The public boomsim package
// builds its distributed runner on the coordinator, so any other internal
// import is either an import cycle waiting to happen (boomsim itself) or a
// layering leak (the server's implementation); the coordinator must treat
// workers as remote HTTP services, full stop.
func TestClusterSpeaksOnlyWireTypes(t *testing.T) {
	allowed := map[string]bool{
		"boomsim/internal/wire": true,
		"boomsim/internal/obs":  true,
	}
	err := filepath.WalkDir("internal/cluster", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if (ip == "boomsim" || strings.HasPrefix(ip, "boomsim/")) && !allowed[ip] {
				t.Errorf("%s imports %s; internal/cluster may only use the standard library and boomsim/internal/wire", path, ip)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking internal/cluster: %v", err)
	}
}

// TestObsIsALeaf pins the standard-library-only leaves of the layering.
// internal/obs (trace IDs, the span collector, slog helpers) is imported by
// everything — the root package, the coordinator, the CLIs — and
// internal/memo by both the simulator and the server, so neither may import
// anything from the module: a boomsim import there is an import cycle
// waiting to happen, and through memo the server could reach simulation
// internals.
func TestObsIsALeaf(t *testing.T) {
	for _, dir := range []string{"internal/obs", "internal/memo"} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if ip == "boomsim" || strings.HasPrefix(ip, "boomsim/") {
					t.Errorf("%s imports %s; %s must stay a standard-library-only leaf", path, ip, dir)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", dir, err)
		}
	}
}

// TestChaosStaysOutOfProduction pins the fault-injection harness to test
// code: internal/chaos exists to tear writes and kill requests, so the only
// files allowed to import it are _test.go files. A production import — a
// binary, the server, the coordinator — would ship deliberate data
// corruption.
func TestChaosStaysOutOfProduction(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if strings.HasPrefix(path, filepath.Join("internal", "chaos")+string(filepath.Separator)) {
			return nil // the harness may of course be itself
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if ip, uerr := strconv.Unquote(imp.Path.Value); uerr == nil && ip == "boomsim/internal/chaos" {
				t.Errorf("%s imports boomsim/internal/chaos; the fault-injection harness is test-only", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking module: %v", err)
	}
}

// TestExperimentEngineStaysPure pins the experiment engine's layering:
// internal/exp (and its statkit subpackage) is pure spec/statistics/verdict
// logic. It may use the standard library, its own statkit, and the shared
// wire/stats vocabularies — never the public boomsim package (that is an
// import cycle: boomsim.RunExperiment is built on exp) and never the
// simulation internals (the engine consumes flat metric maps, so it can be
// driven by hand-built cells in tests and by the public API in production).
func TestExperimentEngineStaysPure(t *testing.T) {
	allowed := map[string]bool{
		"boomsim/internal/exp/statkit": true,
		"boomsim/internal/wire":        true,
		"boomsim/internal/stats":       true,
	}
	err := filepath.WalkDir("internal/exp", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if (ip == "boomsim" || strings.HasPrefix(ip, "boomsim/")) && !allowed[ip] {
				t.Errorf("%s imports %s; internal/exp may only use the standard library, statkit, and boomsim/internal/{wire,stats}", path, ip)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking internal/exp: %v", err)
	}
}
