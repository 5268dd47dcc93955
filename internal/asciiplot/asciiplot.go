// Package asciiplot renders simple scatter/line charts as text, so the
// experiment harness can show figure shapes directly in a terminal next to
// the CSV it writes.
package asciiplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named sequence of (x, y) points.
type Series struct {
	Name string
	X, Y []float64
}

// markers cycles through per-series glyphs.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '~', '^'}

// Chart renders the series into a w×h character plot with axes and a
// legend. Series with mismatched X/Y lengths or no points are skipped.
func Chart(title string, series []Series, w, h int) string {
	if w < 20 {
		w = 20
	}
	if h < 5 {
		h = 5
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			continue
		}
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			any = true
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if !any {
		return title + "\n(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range series {
		if len(s.X) != len(s.Y) {
			continue
		}
		m := markers[si%len(markers)]
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			col := int((s.X[i] - minX) / (maxX - minX) * float64(w-1))
			row := h - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(h-1))
			if col >= 0 && col < w && row >= 0 && row < h {
				grid[row][col] = m
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%10.4g ┤%s\n", maxY, string(grid[0]))
	for r := 1; r < h-1; r++ {
		fmt.Fprintf(&b, "%10s │%s\n", "", string(grid[r]))
	}
	fmt.Fprintf(&b, "%10.4g ┤%s\n", minY, string(grid[h-1]))
	fmt.Fprintf(&b, "%10s └%s\n", "", strings.Repeat("─", w))
	fmt.Fprintf(&b, "%11s%-*.4g%*.4g\n", "", w/2, minX, w-w/2, maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}
