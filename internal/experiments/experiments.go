// Package experiments contains the reproduction harness: one function per
// experiment in DESIGN.md's index (F1 and E1–E15). Each sizes itself from
// one switch, quick or full, and returns rendered stats.Tables;
// cmd/ndsm-bench prints them, and EXPERIMENTS.md records their measured
// shapes against the paper's claims.
package experiments

import (
	"ndsm/internal/bibliometrics"
	"ndsm/internal/stats"
)

// Result is one experiment's output: a headline table plus optional extra
// sections (charts, sub-tables).
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
	Chart  string
}

// f1 regenerates the paper's Figure 1.
func f1() Result {
	series := bibliometrics.Figure1()
	t := stats.NewTable("F1 data", "year", "references")
	for _, yc := range series {
		t.AddRow(yc.Year, yc.Count)
	}
	return Result{
		ID:     "F1",
		Title:  "Paper Figure 1: middleware references per year (IEEE Xplore, 1989-2001)",
		Tables: []*stats.Table{t},
		Chart:  bibliometrics.Chart(series, 50),
		Notes: []string{
			"Series transcribed from the figure; onset 1993, ≈170/year by 2000-2001.",
		},
	}
}
