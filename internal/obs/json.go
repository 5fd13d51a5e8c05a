package obs

// json.go — the JSON view of a registry: the families WritePrometheus
// renders, as one object keyed by family name, for dashboards and
// scripts that read JSON rather than the text format. Both views read
// the same series, so a metric has one name and one value in either.

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strings"
)

// WriteJSON writes every registered family as one JSON object keyed by
// family name. A family without labels becomes its value. A labeled
// family becomes an object keyed by label value; a series with several
// labels joins their values with "," in label-name order. A histogram
// becomes {"count": n, "sum": s}. As in WritePrometheus, dynamic
// families (SeriesFunc) producing no samples are omitted. Non-finite
// values, which JSON cannot spell, are written as null.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]any)
	for _, f := range r.snapshotFamilies() {
		var labels [][]Label
		var values []any
		if f.fn != nil {
			for _, s := range f.fn() {
				labels = append(labels, s.Labels)
				values = append(values, jsonFloat(s.Value))
			}
		} else {
			for _, s := range f.series {
				labels = append(labels, s.labels)
				values = append(values, s.jsonValue())
			}
		}
		switch {
		case len(values) == 0:
		case len(values) == 1 && len(labels[0]) == 0:
			out[f.name] = values[0]
		default:
			byLabel := make(map[string]any, len(values))
			for i, v := range values {
				byLabel[labelValues(labels[i])] = v
			}
			out[f.name] = byLabel
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// jsonValue is one static series' value in the JSON view.
func (s *series) jsonValue() any {
	switch {
	case s.c != nil:
		return s.c.Value()
	case s.g != nil:
		return jsonFloat(s.g.Value())
	case s.fn != nil:
		return jsonFloat(s.fn())
	case s.h != nil:
		return map[string]any{"count": s.h.Count(), "sum": jsonFloat(s.h.Sum())}
	}
	return nil
}

// jsonFloat maps the IEEE specials, which JSON has no spelling for, to
// null.
func jsonFloat(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return v
}

// labelValues is a series' key within its family's JSON object: its
// label values in label-name order, joined with ",".
func labelValues(labels []Label) string {
	ls := append([]Label(nil), labels...)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	vals := make([]string, len(ls))
	for i, l := range ls {
		vals[i] = l.Value
	}
	return strings.Join(vals, ",")
}
