package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// promName maps a dotted metric name to the Prometheus identifier charset:
// every character outside [a-zA-Z0-9_:] becomes '_'.
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// escapeHelp applies the 0.0.4 escaping for # HELP text: backslash
// becomes \\ and line feed becomes \n (a literal backslash-n), so the
// comment stays a single line.
func escapeHelp(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeLabelValue applies the 0.0.4 escaping for label values: the HELP
// escapes plus double-quote, since values are rendered inside quotes.
func escapeLabelValue(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		case '"':
			sb.WriteString(`\"`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// writeHelp emits the # HELP line for the series p if the registry has
// help text registered under the instrument's dotted name n.
func writeHelp(w io.Writer, r *Registry, n, p string) error {
	h := r.Help(n)
	if h == "" {
		return nil
	}
	_, err := fmt.Fprintf(w, "# HELP %s %s\n", p, escapeHelp(h))
	return err
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as-is (gauges additionally
// publish a <name>_max high-watermark series), histograms with cumulative
// le-labeled buckets plus _sum and _count. Instruments with registered
// help text (Registry.SetHelp) get a # HELP line with the format's
// escaping rules applied (\ and newline in help text; \, newline and "
// in label values). Series are sorted by name so the output is
// deterministic.
func WritePrometheus(w io.Writer, r *Registry) error {
	snap := r.Snapshot()
	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := promName(n)
		if err := writeHelp(w, r, n, p); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, snap.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := promName(n)
		g := snap.Gauges[n]
		if err := writeHelp(w, r, n, p); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n# TYPE %s_max gauge\n%s_max %d\n",
			p, p, g.Value, p, p, g.Max); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := promName(n)
		h := snap.Histograms[n]
		if err := writeHelp(w, r, n, p); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", p); err != nil {
			return err
		}
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if b.LE >= 0 {
				le = fmt.Sprint(b.LE)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", p, escapeLabelValue(le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", p, h.SumNs, p, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry over HTTP: Prometheus text format by
// default, the snapshot as indented JSON (the expvar-style view of the
// same data) with ?format=json. Mount it wherever the embedding process
// wants its /metrics endpoint (cmd/wfrun -metrics-addr).
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(r.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r)
	})
}
