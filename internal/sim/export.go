package sim

// This file implements machine-readable experiment output. Every
// overlaysim subcommand can emit an Export — a versioned JSON document
// bundling the run's configuration, final counters, latency histograms,
// epoch time-series and per-command results — so benchmark trajectories
// can be diffed across commits instead of eyeballing printed tables.

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"runtime"
	"strconv"
)

// SchemaVersion identifies the Export JSON layout. Bump it on any
// backwards-incompatible change to the schema (field removal or
// renaming; purely additive fields keep the version).
const SchemaVersion = 1

// Export is the machine-readable result of one simulator run.
type Export struct {
	SchemaVersion int                         `json:"schema_version"`
	Command       string                      `json:"command"`
	Meta          *RunMeta                    `json:"meta,omitempty"`
	Config        interface{}                 `json:"config,omitempty"`
	Counters      map[string]uint64           `json:"counters,omitempty"`
	Histograms    map[string]HistogramSummary `json:"histograms,omitempty"`
	Series        []SeriesExport              `json:"series,omitempty"`
	Results       interface{}                 `json:"results,omitempty"`
}

// RunMeta records the provenance of a run — what executed it and how
// wide the harness fanned out — so exported baselines can be compared
// with their execution environment in view. Purely additive to the
// schema: absent fields keep old documents valid, so SchemaVersion
// stays at 1.
type RunMeta struct {
	GoVersion string  `json:"go_version,omitempty"`
	NumCPU    int     `json:"num_cpu,omitempty"`
	Parallel  int     `json:"parallel,omitempty"` // harness worker count
	WallMS    float64 `json:"wall_ms,omitempty"`  // host wall clock of the whole run
}

// NewRunMeta captures the current runtime environment.
func NewRunMeta(parallel int) *RunMeta {
	return &RunMeta{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Parallel:  parallel,
	}
}

// HistogramSummary is the exported form of a Histogram: headline moments
// and percentiles plus the non-empty buckets.
type HistogramSummary struct {
	Count   uint64        `json:"count"`
	Min     uint64        `json:"min"`
	Max     uint64        `json:"max"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket: the inclusive value
// range [Lo, Hi] and its sample count.
type BucketCount struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Summary renders the histogram for export.
func (h *Histogram) Summary() HistogramSummary {
	s := HistogramSummary{
		Count: h.Count(),
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.P50(),
		P95:   h.P95(),
		P99:   h.P99(),
	}
	for i := 0; i < h.NumBuckets(); i++ {
		if c := h.Bucket(i); c > 0 {
			lo, hi := BucketBounds(i)
			s.Buckets = append(s.Buckets, BucketCount{Lo: lo, Hi: hi, Count: c})
		}
	}
	return s
}

// SeriesExport is the exported form of a Series.
type SeriesExport struct {
	Name        string            `json:"name"`
	EpochCycles uint64            `json:"epoch_cycles"`
	Counters    []string          `json:"counters"`
	Rows        []SeriesRowExport `json:"rows"`
}

// SeriesRowExport is one exported epoch sample (cumulative values, in
// the same order as SeriesExport.Counters).
type SeriesRowExport struct {
	EndCycle uint64   `json:"end_cycle"`
	Values   []uint64 `json:"values"`
}

// ExportSeries renders the series for export.
func ExportSeries(s *Series) SeriesExport {
	out := SeriesExport{
		Name:        s.Name(),
		EpochCycles: uint64(s.Epoch()),
		Counters:    s.Counters(),
	}
	for _, row := range s.Rows() {
		out.Rows = append(out.Rows, SeriesRowExport{
			EndCycle: uint64(row.EndCycle),
			Values:   row.Values,
		})
	}
	return out
}

// NewExport creates an empty export for the named command.
func NewExport(command string) *Export {
	return &Export{SchemaVersion: SchemaVersion, Command: command}
}

// ExportFrom bundles a stats registry (counters + histograms) and any
// number of series into an export.
func ExportFrom(command string, stats *Stats, series ...*Series) *Export {
	e := NewExport(command)
	if stats != nil {
		e.Counters = stats.Snapshot()
		hists := stats.Histograms()
		if len(hists) > 0 {
			e.Histograms = make(map[string]HistogramSummary, len(hists))
			for name, h := range hists {
				e.Histograms[name] = h.Summary()
			}
		}
	}
	e.AddSeries(series...)
	return e
}

// AddSeries appends series to the export.
func (e *Export) AddSeries(series ...*Series) {
	for _, s := range series {
		if s != nil {
			e.Series = append(e.Series, ExportSeries(s))
		}
	}
}

// WriteJSON renders the export as indented JSON.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// WriteSeriesCSV renders the export's series rows in long form —
// series,counter,end_cycle,value — one record per (row, counter) pair,
// ready for any plotting tool.
func (e *Export) WriteSeriesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "counter", "end_cycle", "value"}); err != nil {
		return err
	}
	for _, s := range e.Series {
		for _, row := range s.Rows {
			for i, name := range s.Counters {
				rec := []string{
					s.Name,
					name,
					strconv.FormatUint(row.EndCycle, 10),
					strconv.FormatUint(row.Values[i], 10),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
