package main

import (
	"go/ast"
	"go/parser"
	"strings"
	"testing"
)

// TestBareRunClean runs doclint as CI's docs-gate step does, with no
// roots, from the module root: the tree must pass it as it passes
// `make doclint`.
func TestBareRunClean(t *testing.T) {
	t.Chdir("../..")
	problems, scanned, err := lint(nil, "DESIGN.md", "OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 || len(scanned) == 0 {
		t.Fatalf("%d packages scanned, %d problems:\n%s", len(scanned), len(problems), strings.Join(problems, "\n"))
	}
}

func TestTenantBoundRule(t *testing.T) {
	const header = "## 2. Metrics\n\n| Metric | Type | Watch for |\n|---|---|---|\n"
	for _, tc := range []struct {
		name     string
		register string // the registration call in code
		rows     string // the §2 catalog rows
		problem  bool
	}{
		{"bound stated", `m.CounterVec("wsda_x_total", "X.", "tenant")`,
			"| `wsda_x_total{tenant}` | counter | x. One series per tenant in `-tenants` |\n", false},
		{"bound missing", `m.CounterVec("wsda_x_total", "X.", "tenant")`,
			"| `wsda_x_total{tenant}` | counter | x per tenant |\n", true},
		{"second label, bound stated", `m.CounterVec("wsda_x_total", "X.", "tenant", "class")`,
			"| `wsda_x_total{tenant,class}` | counter | at most three series per tenant in `-tenants` |\n", false},
		{"shared row states it", `m.GaugeFuncVec("wsda_y", "Y.", "tenant")`,
			"| `wsda_x` / `wsda_y{tenant}` | gauge | one series per tenant in `-tenants` each |\n", false},
		{"named only in another row", `m.GaugeFuncVec("wsda_y", "Y.", "tenant")`,
			"| `wsda_x` | gauge | against `wsda_y`; one series per tenant in `-tenants` |\n", true},
		{"no tenant label", `m.CounterVec("wsda_x_total", "X.", "node")`,
			"| `wsda_x_total{node}` | counter | x |\n", false},
		{"tenant as help text only", `m.Counter("wsda_x_total", "tenant")`,
			"| `wsda_x_total` | counter | x |\n", false},
	} {
		call, err := parser.ParseExpr(tc.register)
		if err != nil {
			t.Fatal(err)
		}
		tenant := map[string]bool{}
		if name := tenantFamily(call.(*ast.CallExpr)); name != "" {
			tenant[name] = true
		}
		got := lintTenantBounds("OPERATIONS.md", []byte(header+tc.rows), tenant)
		if (len(got) > 0) != tc.problem {
			t.Errorf("%s: problems %q, want problem=%v", tc.name, got, tc.problem)
		}
	}
}
