package xrand

import "math"

// A thin wrapper keeps the hot sampling paths readable; the compiler inlines
// it to the direct math call.

func ln(x float64) float64 { return math.Log(x) }
