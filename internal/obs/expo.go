package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE line per
// family followed by its samples, families sorted by name, samples by
// label set. Histograms expand to cumulative _bucket{le=...} lines plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var lastFamily string
	for _, m := range r.sorted() {
		if m.name != lastFamily {
			lastFamily = m.name
			if m.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", m.name, escapeHelp(m.help))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind.expoType())
		}
		if m.kind == kindHistogram {
			writeHistogram(bw, m)
			continue
		}
		bw.WriteString(m.name)
		if m.labels != "" {
			bw.WriteByte('{')
			bw.WriteString(m.labels)
			bw.WriteByte('}')
		}
		bw.WriteByte(' ')
		bw.WriteString(formatValue(m.value()))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

func writeHistogram(bw *bufio.Writer, m *metric) {
	bounds, cumulative, sum, count := m.h.snapshot()
	for i, b := range bounds {
		bw.WriteString(m.name)
		bw.WriteString(`_bucket{`)
		if m.labels != "" {
			bw.WriteString(m.labels)
			bw.WriteByte(',')
		}
		bw.WriteString(`le="`)
		bw.WriteString(formatValue(b))
		bw.WriteString(`"} `)
		bw.WriteString(strconv.FormatInt(cumulative[i], 10))
		bw.WriteByte('\n')
	}
	bw.WriteString(m.name)
	bw.WriteString(`_bucket{`)
	if m.labels != "" {
		bw.WriteString(m.labels)
		bw.WriteByte(',')
	}
	bw.WriteString(`le="+Inf"} `)
	bw.WriteString(strconv.FormatInt(count, 10))
	bw.WriteByte('\n')

	bw.WriteString(m.name)
	bw.WriteString("_sum")
	if m.labels != "" {
		bw.WriteByte('{')
		bw.WriteString(m.labels)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatValue(sum))
	bw.WriteByte('\n')

	bw.WriteString(m.name)
	bw.WriteString("_count")
	if m.labels != "" {
		bw.WriteByte('{')
		bw.WriteString(m.labels)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatInt(count, 10))
	bw.WriteByte('\n')
}

// formatValue renders a sample value the way Prometheus expects:
// integers without an exponent, everything else in shortest-round-trip
// form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// Snapshot flattens the registry into name{labels} -> value. Histograms
// contribute two entries, <name>_count and <name>_sum. This is the form
// the repository benchmark diffs across a traced run.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range r.sorted() {
		name := m.name
		if m.labels != "" {
			name += "{" + m.labels + "}"
		}
		if m.kind == kindHistogram {
			_, _, sum, count := m.h.snapshot()
			suffix := ""
			if m.labels != "" {
				suffix = "{" + m.labels + "}"
			}
			out[m.name+"_count"+suffix] = float64(count)
			out[m.name+"_sum"+suffix] = sum
			continue
		}
		out[name] = m.value()
	}
	return out
}

// Handler returns the GET /metrics scrape handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The response writer's error surfaces as a broken scrape on the
		// client side; nothing useful to do with it here.
		_ = r.WritePrometheus(w)
	})
}
