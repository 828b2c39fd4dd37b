package telemetry

import (
	"fmt"
	"html"
	"sort"
	"strings"
	"time"

	"ndsm/internal/sketch"
)

// sparkW/sparkH size the inline SVG sparklines.
const (
	sparkW = 160
	sparkH = 28
)

// DashAlert is one alert row for the dashboard's alerts panel. The telemetry
// package cannot import the slo engine (the engine consumes the aggregator),
// so the bridge flattens live alert state into this neutral shape.
type DashAlert struct {
	Objective string
	Node      string
	Severity  string // "ok" | "warning" | "critical"
	Burn      float64
	Since     time.Time
}

// RenderDashAlerts renders the cluster view as a single self-contained HTML
// page: one card per node (freshness badge, trace depth)
// with an inline-SVG sparkline per metric series, under an alerts panel
// listing every SLO alert instance with its severity, long-window burn rate,
// and how long it has held its level (none when alerts is nil). No scripts,
// no external assets — it must work from the embedded web server of a
// constrained device, which is the paper's §2 deployment target.
func RenderDashAlerts(v ClusterView, alerts []DashAlert) []byte {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>ndsm cluster</title>
<style>
body{font-family:ui-monospace,monospace;background:#111;color:#ddd;margin:1.5em}
h1{font-size:1.2em} .meta{color:#888;font-size:.85em}
.node{border:1px solid #333;border-radius:6px;padding:.8em 1em;margin:.8em 0;background:#181818}
.node h2{font-size:1em;margin:0 0 .4em}
.badge{display:inline-block;padding:0 .5em;border-radius:3px;font-size:.8em;margin-left:.6em}
.fresh{background:#153;color:#9f9} .stale{background:#511;color:#f99}
table{border-collapse:collapse;font-size:.85em}
td,th{padding:.1em .6em;text-align:left;border-bottom:1px solid #2a2a2a}
.spark{vertical-align:middle} .val{color:#9cf}
.peers{color:#aaa;font-size:.85em;margin:.3em 0}
.alerts{border:1px solid #333;border-radius:6px;padding:.8em 1em;margin:.8em 0;background:#181818}
.alerts h2{font-size:1em;margin:0 0 .4em}
.sev-ok{background:#153;color:#9f9} .sev-warning{background:#542;color:#fc6} .sev-critical{background:#511;color:#f99}
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>ndsm cluster telemetry</h1>\n<p class=\"meta\">%d node(s) &middot; view at %s &middot; stale after %s</p>\n",
		len(v.Nodes), html.EscapeString(v.Now.Format(time.RFC3339)), v.StaleAfter)
	writeAlertsPanel(&b, v.Now, alerts)
	writeTopicsPanel(&b, v.Topics, v.HotTopics)
	for _, n := range v.Nodes {
		badge := `<span class="badge fresh">fresh</span>`
		if !n.Fresh {
			badge = `<span class="badge stale">stale</span>`
		}
		fmt.Fprintf(&b, "<div class=\"node\"><h2>%s%s</h2>\n", html.EscapeString(n.Node), badge)
		fmt.Fprintf(&b, "<p class=\"meta\">seq %d &middot; %d report(s) &middot; last %s (age %s)",
			n.Seq, n.Reports, html.EscapeString(n.LastReport.Format(time.RFC3339)), n.Age)
		if n.TraceLen > 0 || n.TraceTotal > 0 {
			fmt.Fprintf(&b, " &middot; trace %d held / %d total / %d dropped", n.TraceLen, n.TraceTotal, n.TraceDrops)
		}
		b.WriteString("</p>\n")
		writeSeriesTable(&b, n.Series)
		b.WriteString("</div>\n")
	}
	b.WriteString("</body></html>\n")
	return []byte(b.String())
}

// writeAlertsPanel renders the SLO alerts table. No alerts configured: no
// panel (the dashboard predates the engine and must not grow noise).
func writeAlertsPanel(b *strings.Builder, now time.Time, alerts []DashAlert) {
	if len(alerts) == 0 {
		return
	}
	b.WriteString("<div class=\"alerts\"><h2>SLO alerts</h2>\n")
	b.WriteString("<table><tr><th>objective</th><th>node</th><th>state</th><th>burn</th><th>since</th></tr>\n")
	for _, a := range alerts {
		since := ""
		if !a.Since.IsZero() {
			since = now.Sub(a.Since).String()
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td><span class=\"badge sev-%s\">%s</span></td><td class=\"val\">%.2f</td><td>%s</td></tr>\n",
			html.EscapeString(a.Objective), html.EscapeString(a.Node),
			html.EscapeString(a.Severity), html.EscapeString(a.Severity),
			a.Burn, html.EscapeString(since))
	}
	b.WriteString("</table></div>\n")
}

// writeTopicsPanel renders the cluster-merged per-topic attribution: call
// share bars from the merged top-k, latency quantiles from the merged
// histograms. No digests published: no panel.
func writeTopicsPanel(b *strings.Builder, topics []TopicStat, hot []sketch.TopKEntry) {
	if len(topics) == 0 && len(hot) == 0 {
		return
	}
	b.WriteString("<div class=\"alerts\"><h2>Request attribution</h2>\n")
	if len(topics) > 0 {
		total := 0.0
		for _, t := range topics {
			total += t.Count
		}
		b.WriteString("<table><tr><th>topic</th><th>calls</th><th>share</th><th>p50 ms</th><th>p99 ms</th></tr>\n")
		for _, t := range topics {
			share := 0.0
			if total > 0 {
				share = t.Count / total
			}
			fmt.Fprintf(b, "<tr><td>%s</td><td class=\"val\">%s</td><td>%s %.1f%%</td><td class=\"val\">%s</td><td class=\"val\">%s</td></tr>\n",
				html.EscapeString(t.Topic), trimNum(t.Count), shareBar(share), 100*share,
				trimNum(t.P50), trimNum(t.P99))
		}
		b.WriteString("</table>\n")
	}
	if len(hot) > 0 {
		b.WriteString("<p class=\"peers\">hot topics:")
		for i, e := range hot {
			if i >= 5 {
				break
			}
			fmt.Fprintf(b, " %s(%d&plusmn;%d)", html.EscapeString(e.Key), e.Count, e.Err)
		}
		b.WriteString("</p>\n")
	}
	b.WriteString("</div>\n")
}

// shareBar renders a topic's traffic share as a fixed-width inline SVG bar.
func shareBar(share float64) string {
	w := share * (sparkW - 2)
	return fmt.Sprintf(
		`<svg class="spark" width="%d" height="10" viewBox="0 0 %d 10"><rect x="1" y="2" width="%.1f" height="6" fill="#6cf"/></svg>`,
		sparkW, sparkW, w)
}

func writeSeriesTable(b *strings.Builder, series map[string][]Point) {
	if len(series) == 0 {
		return
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("<table><tr><th>metric</th><th>last</th><th></th></tr>\n")
	for _, name := range names {
		pts := series[name]
		last := 0.0
		if len(pts) > 0 {
			last = pts[len(pts)-1].V
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"val\">%s</td><td>%s</td></tr>\n",
			html.EscapeString(name), trimNum(last), sparkline(pts))
	}
	b.WriteString("</table>\n")
}

// sparkline renders one series as an inline SVG polyline scaled into a
// fixed-size box; a flat series draws a midline.
func sparkline(pts []Point) string {
	if len(pts) == 0 {
		return ""
	}
	minV, maxV := pts[0].V, pts[0].V
	minT, maxT := pts[0].T, pts[len(pts)-1].T
	for _, p := range pts {
		if p.V < minV {
			minV = p.V
		}
		if p.V > maxV {
			maxV = p.V
		}
	}
	span := maxV - minV
	tspan := float64(maxT.Sub(minT))
	var coords []string
	for i, p := range pts {
		x := float64(i) / float64(max(len(pts)-1, 1)) * (sparkW - 2)
		if tspan > 0 {
			x = float64(p.T.Sub(minT)) / tspan * (sparkW - 2)
		}
		y := float64(sparkH) / 2
		if span > 0 {
			y = (1 - (p.V-minV)/span) * (sparkH - 4)
		}
		coords = append(coords, fmt.Sprintf("%.1f,%.1f", x+1, y+2))
	}
	return fmt.Sprintf(
		`<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d"><polyline fill="none" stroke="#6cf" stroke-width="1.5" points="%s"/></svg>`,
		sparkW, sparkH, sparkW, sparkH, strings.Join(coords, " "))
}

func trimNum(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
