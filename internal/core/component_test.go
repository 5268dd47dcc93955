package core

import (
	"fmt"
	"testing"

	"gossipkit/internal/dist"
	"gossipkit/internal/failure"
	"gossipkit/internal/graph"
	"gossipkit/internal/membership"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// refComponentReliability is componentReliability as it stood before the
// per-worker scratch: every buffer, the graph and both searches built fresh
// for the one execution.
func refComponentReliability(p Params, r *xrand.RNG) ComponentResult {
	mask := new(failure.Mask)
	p.drawMaskInto(mask, r)
	view := p.view()
	g := graph.NewDigraph(p.N)
	targets := make([]int, 0, 16)
	res := ComponentResult{AliveCount: mask.AliveCount()}
	for u := 0; u < p.N; u++ {
		if !mask.Alive(u) {
			continue
		}
		f := p.Fanout.Sample(r)
		targets = view.SampleTargets(targets, u, f, r)
		res.MessagesSent += len(targets)
		for _, v := range targets {
			if mask.Alive(v) {
				g.AddArc(u, v)
			}
		}
	}
	probes := make([]int, 0, probeCount)
	probes = append(probes, p.Source)
	for len(probes) < probeCount {
		c := r.Intn(p.N)
		if mask.Alive(c) {
			probes = append(probes, c)
		}
	}
	res.GiantSize = graph.LargestOutComponent(g, nil, probes)
	res.SourceReach = new(graph.Searcher).Reachable(g, p.Source, nil)
	res.SourceInGiant = res.SourceReach >= res.GiantSize && res.GiantSize > 1
	if res.AliveCount > 0 {
		res.Reliability = float64(res.GiantSize) / float64(res.AliveCount)
	}
	return res
}

// TestComponentReliabilityPooledMatchesFresh drives one scratch through a
// shuffled list of parameter sets — group sizes growing and shrinking, both
// mask kinds, the full view, SCAMP partial views and a k-out overlay, sub-
// and supercritical fanouts — and holds every execution to a fresh scratch
// and to the pre-scratch implementation: same ComponentResult, same next
// draw on the stream.
func TestComponentReliabilityPooledMatchesFresh(t *testing.T) {
	kout, err := topology.Spec{Kind: topology.KOut, K: 6}.Build(400, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var cases []Params
	for _, n := range []int{2, 3, 17, 400, 1000, 5000} {
		for _, kind := range []MaskKind{ExactCount, Bernoulli} {
			for _, f := range []dist.Distribution{dist.NewPoisson(0.7), dist.NewPoisson(4), dist.NewFixed(3)} {
				for _, q := range []float64{0.3, 0.9, 1} {
					cases = append(cases, Params{N: n, Fanout: f, AliveRatio: q, Source: n / 2, MaskKind: kind})
				}
			}
		}
	}
	cases = append(cases,
		Params{N: 400, Fanout: dist.NewPoisson(3), AliveRatio: 0.8, View: membership.NewPartialViews(400, 2, xrand.New(5))},
		Params{N: 400, Fanout: dist.NewPoisson(3), AliveRatio: 0.8, View: kout},
		Params{N: 400, Fanout: dist.NewFixed(2), AliveRatio: 0.5, MaskKind: Bernoulli, View: kout},
	)
	order := xrand.New(11)
	order.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })

	pooled := new(componentScratch)
	for i, p := range cases {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		seed := uint64(100 + i)
		rp, rf, rr := xrand.New(seed), xrand.New(seed), xrand.New(seed)
		got := componentReliability(p, pooled, rp)
		fresh := componentReliability(p, new(componentScratch), rf)
		want := refComponentReliability(p, rr)
		name := fmt.Sprintf("case %d (n=%d %s q=%g %v view=%T)", i, p.N, p.Fanout.Name(), p.AliveRatio, p.MaskKind, p.View)
		if got != want || fresh != want {
			t.Fatalf("%s:\npooled    %+v\nfresh     %+v\nreference %+v", name, got, fresh, want)
		}
		next := rr.Uint64()
		if g, f := rp.Uint64(), rf.Uint64(); g != next || f != next {
			t.Fatalf("%s: streams parted: pooled %#x fresh %#x reference %#x", name, g, f, next)
		}
	}
}

// TestComponentReliabilityAllocs pins the scratch's promise: once warm, a
// replication at the paper's n on the full view allocates nothing.
func TestComponentReliabilityAllocs(t *testing.T) {
	for _, f := range []float64{0.6, 4} { // the probe fallback and the giant-component regime
		p := Params{N: 5000, Fanout: dist.NewPoisson(f), AliveRatio: 0.9}
		sc := new(componentScratch)
		r := xrand.New(1)
		for i := 0; i < 20; i++ { // warm: let every buffer reach its high-water mark
			componentReliability(p, sc, r)
		}
		if avg := testing.AllocsPerRun(20, func() { componentReliability(p, sc, r) }); avg != 0 {
			t.Errorf("Poisson(%g): %.2f allocations per warm replication, want 0", f, avg)
		}
	}
}

// BenchmarkComponentReliability is one giant-component replication on a
// warm scratch — the inner call of Figs. 4–5 — at n = 5000, mean fanout
// 4.3, q = 0.3 (just above the critical point, where the largest SCC is
// often trivial and the 64-probe fallback runs) and q = 1 (a giant that
// holds the source most of the time), plus fanout·q below, near and well
// above the critical point at q = 0.5. It reports ns/op and allocs/op (0
// once warm); arcs/op must not move under a change that keeps the draws.
func BenchmarkComponentReliability(b *testing.B) {
	const n = 5000
	type point struct{ f, q float64 }
	points := []point{{4.3, 0.3}, {4.3, 1}, {1, 0.5}, {4, 0.5}, {10, 0.5}}
	for _, pt := range points {
		b.Run(fmt.Sprintf("n=%d/f=%g/q=%g", n, pt.f, pt.q), func(b *testing.B) {
			p := Params{N: n, Fanout: dist.NewPoisson(pt.f), AliveRatio: pt.q}
			sc := new(componentScratch)
			r := xrand.New(1)
			for i := 0; i < 5; i++ {
				componentReliability(p, sc, r)
			}
			arcs := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				componentReliability(p, sc, r)
				arcs += sc.g.Arcs()
			}
			b.ReportMetric(float64(arcs)/float64(b.N), "arcs/op")
		})
	}
}
