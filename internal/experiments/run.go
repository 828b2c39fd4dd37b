package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Runner executes experiments by ID.
type Runner struct {
	// QuickMode shrinks workloads.
	QuickMode bool
}

// experiment is one entry of the run order: an ID and its function, which
// sizes itself from quick.
type experiment struct {
	id  string
	run func(quick bool) (Result, error)
}

// experimentList is every experiment in run order.
var experimentList = []experiment{
	{"F1", func(bool) (Result, error) { return f1(), nil }},
	{"E1", e1},
	{"E2", e2},
	{"E3", e3},
	{"E4", e4},
	{"E4x", e4x},
	{"E5", e5},
	{"E5a", func(bool) (Result, error) { return e5Ablation() }},
	{"E6", e6},
	{"E6a", e6Ablation},
	{"E7", e7},
	{"E8", e8},
	{"E9", e9},
	{"E10", e10},
	{"E11", e11},
	{"E12", e12},
	{"E13", e13},
	{"E14", e14},
	{"E15", e15},
}

// pick returns an experiment's quick-mode value or its full-mode one.
func pick[T any](quick bool, q, full T) T {
	if quick {
		return q
	}
	return full
}

// IDs lists all experiment identifiers in run order.
func IDs() []string {
	ids := make([]string, len(experimentList))
	for i, e := range experimentList {
		ids[i] = e.id
	}
	return ids
}

// Gate is an absolute upper bound on one cell of an experiment's tables: a
// contract of the mechanism under test, not a drift from an earlier run. Cell
// is "table title/row key/column" as ndsm-bench -baseline keys it.
type Gate struct {
	Cell string
	Max  float64
	What string
}

// Gates maps an experiment ID to the bounds ndsm-bench -compare holds its
// cells to. Each list is declared in the experiment's own file.
var Gates = map[string][]Gate{
	"E13": e13Gates,
	"E14": e14Gates,
	"E15": e15Gates,
}

// Run executes one experiment by ID (case-insensitive).
func (r Runner) Run(id string) (Result, error) {
	for _, e := range experimentList {
		if strings.EqualFold(e.id, id) {
			return e.run(r.QuickMode)
		}
	}
	return Result{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// RunAll executes every experiment, writing rendered results to w as it
// goes. It returns the first error but keeps going through the rest.
func (r Runner) RunAll(w io.Writer) error {
	var firstErr error
	for _, id := range IDs() {
		res, err := r.Run(id)
		if err != nil {
			fmt.Fprintf(w, "!! %s failed: %v\n\n", id, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		fmt.Fprint(w, Render(res))
	}
	return firstErr
}

// Render formats one result for terminal output.
func Render(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", res.ID, res.Title)
	if res.Chart != "" {
		b.WriteString(res.Chart)
		b.WriteString("\n")
	}
	for _, t := range res.Tables {
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	for _, note := range res.Notes {
		fmt.Fprintf(&b, "  note: %s\n", note)
	}
	b.WriteString("\n")
	return b.String()
}
