package obs

// Span export formats: a nested JSON tree (the job service's trace
// endpoint), a compact JSONL span log (one object per line, grep- and
// jq-friendly), and Chrome trace_event records that merge with the
// simulator's event ring into one document for chrome://tracing and
// Perfetto. See docs/OBSERVABILITY.md for the span taxonomy.

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// SpanNode is one span rendered for the nested trace document.
type SpanNode struct {
	Name     string            `json:"name"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_span_id,omitempty"`
	StartUS  int64             `json:"start_us"` // offset from the trace's first span
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*SpanNode       `json:"children,omitempty"`
}

// BuildTree nests the spans by parentage: a span whose parent is
// absent from the set (a trace root, or a child of a remote span)
// becomes a top level node. Siblings are ordered by start time, then
// name; start offsets are microseconds since the earliest span start.
func BuildTree(spans []Span) []*SpanNode {
	if len(spans) == 0 {
		return nil
	}
	base := TraceStart(spans)
	nodes := make(map[SpanID]*SpanNode, len(spans))
	for i := range spans {
		nodes[spans[i].ID] = spanNode(&spans[i], base)
	}
	var roots []*SpanNode
	for i := range spans {
		sp := &spans[i]
		if parent, ok := nodes[sp.Parent]; ok && !sp.Parent.IsZero() && sp.Parent != sp.ID {
			parent.Children = append(parent.Children, nodes[sp.ID])
		} else {
			roots = append(roots, nodes[sp.ID])
		}
	}
	var sortNodes func(ns []*SpanNode)
	sortNodes = func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].StartUS != ns[j].StartUS {
				return ns[i].StartUS < ns[j].StartUS
			}
			return ns[i].Name < ns[j].Name
		})
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}

// TraceStart is the earliest start among spans (zero when there are
// none): every export measures span offsets from it.
func TraceStart(spans []Span) time.Time {
	var base time.Time
	for i, sp := range spans {
		if i == 0 || sp.Start.Before(base) {
			base = sp.Start
		}
	}
	return base
}

// attrMap renders span attributes as a map (nil when there are none).
func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

func spanNode(sp *Span, base time.Time) *SpanNode {
	n := &SpanNode{
		Name:    sp.Name,
		SpanID:  sp.ID.String(),
		StartUS: sp.Start.Sub(base).Microseconds(),
		DurUS:   sp.Dur.Microseconds(),
		Attrs:   attrMap(sp.Attrs),
	}
	if !sp.Parent.IsZero() {
		n.ParentID = sp.Parent.String()
	}
	return n
}

// spanLine is the JSONL form of one span (docs/OBSERVABILITY.md "Log
// and span schema").
type spanLine struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_span_id,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// WriteSpansJSONL renders the spans one compact JSON object per line.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		sp := &spans[i]
		line := spanLine{
			TraceID: sp.Trace.String(),
			SpanID:  sp.ID.String(),
			Name:    sp.Name,
			Start:   sp.Start,
			DurUS:   sp.Dur.Microseconds(),
			Attrs:   attrMap(sp.Attrs),
		}
		if !sp.Parent.IsZero() {
			line.ParentID = sp.Parent.String()
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// chromeSpan is one complete ("ph":"X") trace_event record.
type chromeSpan struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"` // µs since the trace's first span
	Dur  int64             `json:"dur"`
	Pid  uint64            `json:"pid"`
	Tid  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeSpanPid is the trace_event pid the span track uses. The
// simulator's event ring numbers its tracks from 1, so pid 0 keeps the
// host-span track separate when the two are merged into one document.
const ChromeSpanPid = 0

// ChromeRecords renders the spans as Chrome trace_event records:
// complete events ("ph":"X") on the host-span track, timestamps in
// microseconds since the trace's first span, plus a process_name
// metadata record labelling the track. Merge with the simulator ring's
// records via sim.WriteChromeTrace — the tracks are separate processes
// in the viewer because span time is host wall time while simulator
// time is cycles.
func ChromeRecords(spans []Span) ([]json.RawMessage, error) {
	if len(spans) == 0 {
		return nil, nil
	}
	base := TraceStart(spans)
	meta := map[string]interface{}{
		"name": "process_name",
		"ph":   "M",
		"pid":  uint64(ChromeSpanPid),
		"tid":  uint64(0),
		"args": map[string]string{"name": "host spans (µs wall)"},
	}
	raw, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	records := []json.RawMessage{raw}
	for i := range spans {
		sp := &spans[i]
		ce := chromeSpan{
			Name: sp.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   sp.Start.Sub(base).Microseconds(),
			Dur:  sp.Dur.Microseconds(),
			Pid:  ChromeSpanPid,
			Tid:  0,
			Args: attrMap(sp.Attrs),
		}
		raw, err := json.Marshal(ce)
		if err != nil {
			return nil, err
		}
		records = append(records, raw)
	}
	return records, nil
}
