package stats

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 12345)
	out := tb.Render()
	if !strings.Contains(out, "## demo") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "12345") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableFloatTrim(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(2.5000)
	tb.AddRow(3.0)
	tb.AddRow(float32(0.25))
	out := tb.CSV()
	if !strings.Contains(out, "2.5\n") || !strings.Contains(out, "3\n") || !strings.Contains(out, "0.25\n") {
		t.Fatalf("bad float trimming:\n%s", out)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`x,y`, `he said "hi"`)
	out := tb.CSV()
	if !strings.Contains(out, `"x,y"`) {
		t.Fatalf("comma cell not quoted:\n%s", out)
	}
	if !strings.Contains(out, `"he said ""hi"""`) {
		t.Fatalf("quote cell not escaped:\n%s", out)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("refs", []string{"1999", "2000"}, []float64{10, 20}, 10)
	if !strings.Contains(out, "## refs") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "1999 | ##### 10") {
		t.Fatalf("bad half bar:\n%s", out)
	}
	if !strings.Contains(out, "2000 | ########## 20") {
		t.Fatalf("bad full bar:\n%s", out)
	}
}

func TestBarChartZeroValues(t *testing.T) {
	out := BarChart("", []string{"a"}, []float64{0}, 0)
	if !strings.Contains(out, "a") {
		t.Fatalf("label missing:\n%s", out)
	}
}
