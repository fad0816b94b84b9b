package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestDistBasics(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	if d.N() != 100 {
		t.Fatalf("N = %d", d.N())
	}
	if got := d.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
	if got := d.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("Median = %v", got)
	}
	if got := d.P99(); got < 99 || got > 100 {
		t.Fatalf("P99 = %v", got)
	}
}

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Median() != 0 || d.P99() != 0 {
		t.Fatal("empty dist should return zeros")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	var d Dist
	d.Add(10)
	d.Add(20)
	if got := d.Quantile(0.5); got != 15 {
		t.Fatalf("Quantile(0.5) = %v, want 15", got)
	}
	if got := d.Quantile(0); got != 10 {
		t.Fatalf("Quantile(0) = %v", got)
	}
	if got := d.Quantile(1); got != 20 {
		t.Fatalf("Quantile(1) = %v", got)
	}
}

func TestAddDuration(t *testing.T) {
	var d Dist
	d.AddDuration(1500 * time.Millisecond)
	if d.Mean() != 1500 {
		t.Fatalf("duration stored as %v ms", d.Mean())
	}
}

func TestDatFile(t *testing.T) {
	s1 := Series{Name: "Hops HPC, Run 1 (hops15)"}
	s1.Add(1, 103, "")
	s1.Add(1024, 4313, "")
	s2 := Series{Name: "Hops HPC, Run 1 (hops 39-42)"}
	s2.Add(256, 900, "")
	s2.Add(512, 0, "crash")
	out := DatFile("fig9", []Series{s1, s2})
	for _, want := range []string{
		"# fig9", "# Hops HPC, Run 1 (hops15)", "1 103", "1024 4313",
		"\n\n", "512 0 # crash",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DatFile missing %q:\n%s", want, out)
		}
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"platform", "tok/s"}, [][]string{
		{"Hops", "4313"},
		{"El Dorado", "1899"},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "platform") || !strings.Contains(lines[3], "El Dorado") {
		t.Fatalf("table:\n%s", out)
	}
}
