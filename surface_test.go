package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowed names the exported functions and methods under internal/
// that may stand without a caller in the program, each with its reason.
// Anything else exported that only tests call is test convenience grown
// into the API: drive the test through the path the program takes, or
// delete the symbol.
var surfaceAllowed = map[string]string{
	// The paper's naplet-facing API: what a naplet or its owner reads of
	// its own identity, log, book, itinerary, state and credentials.
	"id.Heritage.Depth":                 "§2.1 hierarchical naplet ID: clone depth",
	"id.Heritage.IsAncestorOf":          "§2.1 hierarchical naplet ID: clone ancestry",
	"id.NapletID.Created":               "§2.1 naplet ID accessor: creation time",
	"id.NapletID.IsOriginal":            "§2.1 naplet ID accessor: not a clone",
	"id.NapletID.Originator":            "§2.1 naplet ID accessor: the original of a clone",
	"naplet.NavigationLog.Current":      "§2.1 navigation log: the current visit",
	"naplet.NavigationLog.TotalDwell":   "§2.1 navigation log: time spent at servers",
	"naplet.NavigationLog.TotalTransit": "§2.1 navigation log: time spent in transit",
	"naplet.NavigationLog.Reroutes":     "§2.1 navigation log: the failover decisions an owner audits",
	"naplet.AddressBook.Knows":          "§2.1 address book lookup",
	"itinerary.ConditionalTour":         "§3 itinerary pattern: a guarded tour",
	"itinerary.Pattern.Visits":          "§3 itinerary pattern: the servers a pattern may visit",
	"state.State.ModeOf":                "§2.1 protected state: an entry's access mode",
	"monitor.Group.ChargeMemory":        "§5.2 naplet thread group: memory accounting",
	"monitor.Group.Go":                  "§5.2 naplet thread group: a confined auxiliary thread",
	"monitor.Group.Join":                "§5.2 naplet thread group: wait for its auxiliary threads",
	"resource.View.Channels":            "§5.3 naplet.ServicesAPI: the privileged services a naplet may open",
	"cred.NewKeyRing":                   "§5.1 credentials: a deployment's key ring",
	// Interface satisfiers, called through the interface.
	"id.NapletID.MarshalText":   "encoding.TextMarshaler",
	"id.NapletID.UnmarshalText": "encoding.TextUnmarshaler",
	"monitor.waiterHeap.Less":   "container/heap.Interface",
	"monitor.waiterHeap.Push":   "container/heap.Interface",
	"monitor.waiterHeap.Pop":    "container/heap.Interface",
	// Test support by design.
	"allocledger.Reading.Lines": "allocledger is the tier-1 allocation ledgers' reader",
	"netsim.Network.SetLink":    "netsim fault placement: tests stall one directed link, as Partition cuts one",
	// The entry points of a reproduced experiment (EXPERIMENTS.md E10).
	"man.Station.MonitorAll":        "E10: naplet-side trap monitoring over every device",
	"man.Testbed.ForwardAllTraps":   "E10: every device forwards its traps",
	"cnmp.Station.SignificantTraps": "E10: the centralized baseline's trap filter",
}

// TestExportedSurfaceHasCallers fails on every exported function or method
// declared in a non-test file under internal/ that no non-test file of the
// repository — cmd/, examples/ and the bench/ module included — references
// outside the declaration itself. A function is referenced by any
// identifier of its name; a method only by a selector x.Name whose x is not
// an imported package, so a method does not pass on a type or function of
// the same name (telemetry.Gauge once hid Registry.Gauge). Nothing is
// resolved by type: a symbol that shares its name with a used one of the
// same kind passes; the guard catches the surface that nothing names.
func TestExportedSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key    string // pkg.Recv.Name, or pkg.Name
		name   string
		method bool
		pos    token.Pos
	}
	var decls []decl
	refs := map[string]int{}     // identifiers, for functions
	selected := map[string]int{} // x.Name where x is not a package, for methods
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		definitions := strings.HasPrefix(filepath.ToSlash(file), "internal/")
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fn.Name] = true
			if !definitions || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			method := fn.Recv != nil && len(fn.Recv.List) == 1
			if method {
				key = f.Name.Name + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, method, fn.Pos()})
		}
		imports := map[string]bool{}
		for _, im := range f.Imports {
			name := path.Base(strings.Trim(im.Path.Value, `"`))
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !own[n] {
					refs[n.Name]++
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); !ok || !imports[x.Name] {
					selected[n.Sel.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/: is the test running at the module root?")
	}
	var orphans []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if d.method && selected[d.name] > 0 || !d.method && refs[d.name] > 0 {
			continue
		}
		if _, ok := surfaceAllowed[d.key]; ok {
			continue
		}
		orphans = append(orphans, d.key+" ("+fset.Position(d.pos).String()+")")
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("exported with no caller outside tests: %s", o)
	}
	for key := range surfaceAllowed {
		if !seen[key] {
			t.Errorf("allowlist names %s, which is no longer declared", key)
		}
	}
}

// recvName is the receiver's type name without its pointer or type
// parameters.
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
