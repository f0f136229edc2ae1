package experiments

import (
	"fmt"
	"slices"
	"strings"
)

// AsciiChart renders latency-vs-rate curves as a terminal plot — the
// visual shape of Fig. 7 without leaving the console. Each curve gets a
// symbol; saturated points cap at the top row.
func AsciiChart(title string, curves []Curve, symbols string) string {
	const (
		rows = 16
		maxY = latencyCap
	)
	if len(curves) == 0 {
		return ""
	}
	// X axis: union of all rates, in order.
	var rates []float64
	for _, c := range curves {
		for _, pt := range c.Points {
			rates = append(rates, pt.Rate)
		}
	}
	slices.Sort(rates)
	rates = slices.Compact(rates)
	cols := len(rates)

	grid := make([][]byte, rows)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", cols*2))
	}
	for ci, c := range curves {
		sym := byte('*')
		if ci < len(symbols) {
			sym = symbols[ci]
		}
		for _, pt := range c.Points {
			x := slices.Index(rates, pt.Rate)
			lat := pt.TotalLat
			if lat > maxY {
				lat = maxY
			}
			y := rows - 1 - int(lat/maxY*float64(rows-1))
			if y < 0 {
				y = 0
			}
			pos := x * 2
			if grid[y][pos] == ' ' {
				grid[y][pos] = sym
			} else {
				grid[y][pos+1] = sym // overlap: print beside
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s (latency cycles vs offered flits/cycle/node)\n", title)
	for y := 0; y < rows; y++ {
		label := "      "
		switch y {
		case 0:
			label = fmt.Sprintf("%5.0f ", maxY)
		case rows / 2:
			label = fmt.Sprintf("%5.0f ", maxY/2)
		case rows - 1:
			label = "    0 "
		}
		fmt.Fprintf(&b, "%s|%s\n", label, string(grid[y]))
	}
	b.WriteString("      +" + strings.Repeat("-", cols*2) + "\n")
	fmt.Fprintf(&b, "       %.3f%s%.3f\n", rates[0], strings.Repeat(" ", max(1, cols*2-12)), rates[len(rates)-1])
	var legend []string
	for ci, c := range curves {
		sym := byte('*')
		if ci < len(symbols) {
			sym = symbols[ci]
		}
		legend = append(legend, fmt.Sprintf("%c=%s", sym, c.Label))
	}
	fmt.Fprintf(&b, "       %s\n", strings.Join(legend, "  "))
	return b.String()
}
