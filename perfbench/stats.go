package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "type 7" estimator). xs need not be sorted; it is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// counterSum sums every series of a counter family across the given
// registries (labels collapsed). Missing families read as zero.
func counterSum(name string, regs ...*metrics.Registry) float64 {
	var total float64
	for _, f := range metrics.TakeSnapshot(regs...).Families {
		if f.Name != name {
			continue
		}
		for _, m := range f.Metrics {
			if m.Value != nil {
				total += float64(*m.Value)
			}
		}
	}
	return total
}

// histSum returns a histogram family's summed observation total and count
// across its series.
func histSum(name string, regs ...*metrics.Registry) (sum, count float64) {
	for _, f := range metrics.TakeSnapshot(regs...).Families {
		if f.Name != name {
			continue
		}
		for _, m := range f.Metrics {
			if m.Sum != nil {
				sum += *m.Sum
			}
			if m.Count != nil {
				count += float64(*m.Count)
			}
		}
	}
	return sum, count
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
