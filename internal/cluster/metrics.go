package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// WriteMetrics renders the fleet gauges and per-worker routing
// tallies after the coordinator's own registry, followed by the fleet
// aggregate: every worker's /metrics scraped, parsed and merged —
// counters summed, histogram buckets re-cumulated over the union of
// bounds — so one scrape of the coordinator equals the sum of the
// worker registries. An unreachable worker is skipped and counted in
// overlaysim_coord_scrape_errors; the aggregate then covers the
// workers that answered.
func (co *Coordinator) WriteMetrics(ctx context.Context, w io.Writer) {
	workers := co.workerDocs()

	fmt.Fprintf(w, "# HELP overlaysim_coord_workers registered shards\n"+
		"# TYPE overlaysim_coord_workers gauge\noverlaysim_coord_workers %d\n", len(workers))
	fmt.Fprintf(w, "# HELP overlaysim_coord_workers_healthy shards passing readiness probes\n"+
		"# TYPE overlaysim_coord_workers_healthy gauge\noverlaysim_coord_workers_healthy %d\n", len(healthy(workers)))
	if len(workers) > 0 {
		const m = "overlaysim_coord_worker_jobs_total"
		fmt.Fprintf(w, "# HELP %s jobs routed per shard\n# TYPE %s counter\n", m, m)
		for _, d := range workers {
			fmt.Fprintf(w, "%s{worker=\"%s\"} %d\n", m, sim.PromEscapeLabel(d.URL), d.Jobs)
		}
	}

	// Fleet aggregate: scrape, merge, render.
	scrapes := make([]scrape, 0, len(workers))
	errs := 0
	for _, d := range workers {
		sc, err := co.scrapeWorker(ctx, d.URL)
		if err != nil {
			errs++
			fmt.Fprintf(w, "# fleet scrape failed: %s\n", d.URL)
			continue
		}
		scrapes = append(scrapes, sc)
	}
	fmt.Fprintf(w, "# HELP overlaysim_coord_scrape_errors workers that failed this fleet scrape\n"+
		"# TYPE overlaysim_coord_scrape_errors gauge\noverlaysim_coord_scrape_errors %d\n", errs)
	writeMerged(w, mergeScrapes(scrapes))
}

// scrape is one worker's parsed /metrics exposition.
type scrape struct {
	samples []sim.PromSample
	types   map[string]string
}

func (co *Coordinator) scrapeWorker(ctx context.Context, worker string) (scrape, error) {
	raw, err := co.get(ctx, worker+"/metrics", 16<<20, co.cfg.ForwardTimeout)
	if err != nil {
		return scrape{}, err
	}
	samples, types, err := sim.ParsePrometheus(bytes.NewReader(raw))
	if err != nil {
		return scrape{}, err
	}
	return scrape{samples: samples, types: types}, nil
}

// mergedSeries is one output series after the merge.
type mergedSeries struct {
	name     string
	label    string
	labelVal string
	value    float64
}

// merged is the fleet aggregate ready to render.
type merged struct {
	series []mergedSeries
	types  map[string]string
}

// mergeScrapes sums worker expositions per series. Plain samples —
// counters, gauges, histogram _sum/_count — sum directly, keyed by
// (name, label, value). Histogram le-buckets are cumulative, and
// workers emit only their own non-empty buckets, so summing the
// cumulative values per le would under-count wherever bucket sets
// differ; instead each worker's buckets are de-cumulated to per-bucket
// deltas, the deltas summed, and the merged buckets re-cumulated over
// the union of bounds (ascending, +Inf last).
func mergeScrapes(scrapes []scrape) merged {
	m := merged{types: make(map[string]string)}
	plain := make(map[string]*mergedSeries)     // key → sum
	hist := make(map[string]map[string]float64) // metric → le → delta sum
	var plainOrder []string
	var histOrder []string

	for _, sc := range scrapes {
		for name, t := range sc.types {
			m.types[name] = t
		}
		prevCum := make(map[string]float64) // per-scrape cumulative walker
		for _, s := range sc.samples {
			if s.Le != "" {
				buckets, ok := hist[s.Name]
				if !ok {
					buckets = make(map[string]float64)
					hist[s.Name] = buckets
					histOrder = append(histOrder, s.Name)
				}
				buckets[s.Le] += s.Value - prevCum[s.Name]
				prevCum[s.Name] = s.Value
				continue
			}
			key := s.Name + "\x00" + s.Label + "\x00" + s.LabelVal
			series, ok := plain[key]
			if !ok {
				series = &mergedSeries{name: s.Name, label: s.Label, labelVal: s.LabelVal}
				plain[key] = series
				plainOrder = append(plainOrder, key)
			}
			series.value += s.Value
		}
	}

	sort.Strings(plainOrder)
	for _, key := range plainOrder {
		m.series = append(m.series, *plain[key])
	}
	sort.Strings(histOrder)
	for _, name := range histOrder {
		buckets := hist[name]
		les := make([]string, 0, len(buckets))
		for le := range buckets {
			les = append(les, le)
		}
		sort.Slice(les, func(i, j int) bool { return leBound(les[i]) < leBound(les[j]) })
		cum := 0.0
		for _, le := range les {
			cum += buckets[le]
			m.series = append(m.series, mergedSeries{
				name: name, label: "le", labelVal: le, value: cum,
			})
		}
	}
	return m
}

// leBound orders le label values numerically with +Inf last.
func leBound(le string) float64 {
	if le == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return math.Inf(1)
	}
	return v
}

// writeMerged renders the aggregate, one TYPE comment per metric name
// (a histogram's _bucket/_sum/_count series may not be adjacent in the
// output, so emitted declarations are tracked by name, not position).
func writeMerged(w io.Writer, m merged) {
	typed := make(map[string]bool)
	for _, s := range m.series {
		base := s.name
		// A histogram's _bucket/_sum/_count share one TYPE declaration
		// under the base name.
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if len(base) > len(suffix) && base[len(base)-len(suffix):] == suffix {
				if t, ok := m.types[base[:len(base)-len(suffix)]]; ok && t == "histogram" {
					base = base[:len(base)-len(suffix)]
				}
				break
			}
		}
		if !typed[base] {
			if t, ok := m.types[base]; ok {
				fmt.Fprintf(w, "# HELP %s fleet aggregate of %s\n# TYPE %s %s\n", base, base, base, t)
			}
			typed[base] = true
		}
		if s.label != "" {
			fmt.Fprintf(w, "%s{%s=\"%s\"} %s\n",
				s.name, s.label, sim.PromEscapeLabel(s.labelVal), formatPromValue(s.value))
			continue
		}
		fmt.Fprintf(w, "%s %s\n", s.name, formatPromValue(s.value))
	}
}

// formatPromValue renders integral values without an exponent or
// trailing zeros, matching what the workers emitted.
func formatPromValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
