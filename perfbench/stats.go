package main

import "sort"

// percentile of the sorted samples s, interpolating linearly between
// ranks; 0 when there are none.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	x := p / 100 * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sorted(v), 50) }
