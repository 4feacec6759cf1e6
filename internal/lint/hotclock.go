package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotClock guards the rule that bought ~15% net throughput in PR 5:
// the server's request/grant hot path never reads a precise clock —
// time.Now() under dst.Real costs a syscall per call — but compares
// against the sweeper-maintained coarse clock (Server.coarseNow, one
// atomic load). Inside the hot-path function set of internal/server,
// any call to time.Now/Since or to a Clock-shaped Now()/Since()/Sleep()
// method is flagged; the two sanctioned precise-clock reads (write- and
// probe-deadline arming) carry //taslint:allow hotclock directives
// stating why.
var HotClock = &Analyzer{
	Name: "hotclock",
	Doc:  "forbid precise-clock reads (time.Now or Clock.Now/Since/Sleep) in the server request/grant hot path",
	Run:  runHotClock,
}

// hotPathFuncs names the internal/server functions on the per-request
// path: everything between frame decode and response flush. The
// sweeper, accept loop, Shutdown and constructors are deliberately
// absent — they run per-connection or per-interval, not per-op.
var hotPathFuncs = map[string]bool{
	"process":          true, // per-request dispatch
	"handle":           true, // per-connection read loop (frames arrive here)
	"grant":            true,
	"grantPayload":     true,
	"reply":            true,
	"replyErr":         true,
	"shedReply":        true,
	"flush":            true,
	"buffered":         true,
	"dead":             true,
	"lock":             true,
	"reapFenced":       true,
	"reserve":          true,
	"unreserve":        true,
	"retryAfterMillis": true,
}

func runHotClock(pass *Pass) error {
	if !isServerPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil || !hotPathFuncs[fd.Name.Name] {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

func isServerPackage(path string) bool {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	return path == "internal/server" || strings.HasSuffix(path, "/internal/server")
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		// Nested function literals (e.g. the LockWhile predicate) are
		// still on the hot path — don't skip them.
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if pkg, name, ok := pkgFunc(pass.TypesInfo, call); ok && pkg == "time" && (name == "Now" || name == "Since") {
			pass.Report(call.Pos(),
				"time.%s on the request/grant hot path costs a syscall per op: compare against the sweeper's coarse clock", name)
			return true
		}
		if fn := methodCall(pass.TypesInfo, call); fn != nil && clockShapedMethod(fn) {
			pass.Report(call.Pos(),
				"%s() on the request/grant hot path reads the precise clock per op: use the sweeper's coarse clock (Server.coarseNow)", fn.Name())
		}
		return true
	})
}

// clockShapedMethod reports whether fn looks like a dst.Clock time
// accessor: Now() time.Time, Since(time.Time) time.Duration, or
// Sleep(time.Duration). Matching structurally keeps the analyzer free
// of a dependency on the dst package itself.
func clockShapedMethod(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	switch fn.Name() {
	case "Now":
		return sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
			isNamed(sig.Results().At(0).Type(), "time", "Time")
	case "Since":
		return sig.Params().Len() == 1 && isNamed(sig.Params().At(0).Type(), "time", "Time") &&
			sig.Results().Len() == 1 && isNamed(sig.Results().At(0).Type(), "time", "Duration")
	case "Sleep":
		return sig.Params().Len() == 1 && isNamed(sig.Params().At(0).Type(), "time", "Duration") &&
			sig.Results().Len() == 0
	}
	return false
}

func isNamed(t types.Type, pkg, name string) bool {
	p, n, ok := namedPath(t)
	return ok && p == pkg && n == name
}
