// Package metrics provides the small statistics toolkit the benchmark
// harness reports with: sample distributions (mean/median/percentiles),
// throughput series, and gnuplot-compatible .dat writers matching the
// layout of the paper's artifact repository.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Dist accumulates float64 samples and answers summary statistics.
type Dist struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (d *Dist) Add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// AddDuration appends a duration sample in milliseconds.
func (d *Dist) AddDuration(v time.Duration) { d.Add(float64(v) / float64(time.Millisecond)) }

// N returns the sample count.
func (d *Dist) N() int { return len(d.samples) }

// Mean returns the arithmetic mean (0 for empty).
func (d *Dist) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range d.samples {
		s += v
	}
	return s / float64(len(d.samples))
}

// sort ensures the sample slice is ordered.
func (d *Dist) sort() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation.
func (d *Dist) Quantile(q float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	if q <= 0 {
		return d.samples[0]
	}
	if q >= 1 {
		return d.samples[len(d.samples)-1]
	}
	pos := q * float64(len(d.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return d.samples[lo]
	}
	frac := pos - float64(lo)
	return d.samples[lo]*(1-frac) + d.samples[hi]*frac
}

// Median returns the 50th percentile.
func (d *Dist) Median() float64 { return d.Quantile(0.5) }

// P99 returns the 99th percentile.
func (d *Dist) P99() float64 { return d.Quantile(0.99) }

// Point is one (x, y) datum of a series.
type Point struct {
	X float64
	Y float64
	// Note annotates the point (e.g. "crash"), mirrored into .dat comments.
	Note string
}

// Series is a named curve, e.g. one benchmark run across concurrencies.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64, note string) {
	s.Points = append(s.Points, Point{X: x, Y: y, Note: note})
}

// DatFile renders series in the gnuplot-friendly layout the paper's
// artifacts use: one block per series separated by two blank lines, with
// `# name` headers (index-addressable via gnuplot's `index`).
func DatFile(title string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	for i, s := range series {
		if i > 0 {
			b.WriteString("\n\n")
		}
		fmt.Fprintf(&b, "# %s\n", s.Name)
		for _, p := range s.Points {
			if p.Note != "" {
				fmt.Fprintf(&b, "%g %g # %s\n", p.X, p.Y, p.Note)
			} else {
				fmt.Fprintf(&b, "%g %g\n", p.X, p.Y)
			}
		}
	}
	return b.String()
}

// Table renders an aligned text table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
