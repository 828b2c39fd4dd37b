package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Quick controls experiment sizing: quick mode shrinks populations and
// iteration counts so the full suite finishes in well under a minute (used
// by tests); full mode is what cmd/ndsm-bench runs by default.
type Quick bool

// Runner executes experiments by ID.
type Runner struct {
	// QuickMode shrinks workloads.
	QuickMode bool
}

// IDs lists all experiment identifiers in run order.
func IDs() []string {
	return []string{"F1", "E1", "E2", "E3", "E4", "E4x", "E5", "E5a", "E6", "E6a", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}
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

// Run executes one experiment by ID.
func (r Runner) Run(id string) (Result, error) {
	q := r.QuickMode
	switch strings.ToUpper(id) {
	case "F1":
		return F1(), nil
	case "E1":
		if q {
			return E1(E1Options{Sizes: []int{9, 16}, Lookups: 2, ClusterLookups: 50})
		}
		return E1(E1Options{})
	case "E2":
		if q {
			return E2(E2Options{Lookups: 2})
		}
		return E2(E2Options{})
	case "E3":
		if q {
			return E3(E3Options{Printers: 30})
		}
		return E3(E3Options{})
	case "E4":
		if q {
			return E4(E4Options{Requests: 60, Suppliers: 3})
		}
		return E4(E4Options{})
	case "E4X":
		if q {
			return E4X(E4XOptions{Scenarios: 1, Ticks: 40})
		}
		return E4X(E4XOptions{})
	case "E5":
		if q {
			return E5(E5Options{Nodes: 16, Packets: 5})
		}
		return E5(E5Options{})
	case "E5A":
		return E5Ablation()
	case "E6":
		if q {
			return E6(E6Options{SensorsPerVariable: 2, InitialEnergy: 0.005})
		}
		return E6(E6Options{})
	case "E6A":
		if q {
			return E6Ablation(4)
		}
		return E6Ablation(6)
	case "E7":
		if q {
			return E7(E7Options{Ops: 200, Sizes: []int{64}})
		}
		return E7(E7Options{})
	case "E8":
		if q {
			return E8(E8Options{Jobs: 120})
		}
		return E8(E8Options{})
	case "E9":
		if q {
			return E9(E9Options{Ops: 500})
		}
		return E9(E9Options{})
	case "E10":
		if q {
			return E10(E10Options{Iterations: 500, GatewayOps: 200})
		}
		return E10(E10Options{})
	case "E11":
		if q {
			return E11(E11Options{Ticks: 40})
		}
		return E11(E11Options{})
	case "E12":
		if q {
			return E12(E12Options{Ticks: 40, KillAt: 8, KillTicks: 15})
		}
		return E12(E12Options{})
	case "E13":
		if q {
			return E13(E13Options{Duration: 350 * time.Millisecond, Loads: []float64{1, 2}})
		}
		return E13(E13Options{})
	case "E14":
		if q {
			return E14(E14Options{
				Ticks: 60, FaultTicks: 18, CalmSeeds: 2,
				FloodFor: 250 * time.Millisecond,
				Recovery: 300 * time.Millisecond,
				Window:   300 * time.Millisecond,
			})
		}
		return E14(E14Options{})
	case "E15":
		if q {
			return E15(E15Options{
				Nodes: 2, Requests: 4000, ColdTopics: 6,
				Duration: 120 * time.Millisecond, Trials: 2,
			})
		}
		return E15(E15Options{})
	default:
		return Result{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
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
