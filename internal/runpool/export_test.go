package runpool

import "gossipkit/internal/xrand"

// SetClaimOrder makes every Run hand out its items in order(n) until the
// returned restore runs; a nil order is the pool's own ascending claims.
// Tests outside the package use it to show that no result depends on the
// schedule.
func SetClaimOrder(order func(n int) []int) (restore func()) {
	prev := claimOrder
	claimOrder = order
	return func() { claimOrder = prev }
}

// reversed claims the last item first.
func reversed(n int) []int {
	order := make([]int, n)
	for k := range order {
		order[k] = n - 1 - k
	}
	return order
}

// shuffled claims items in a random order seeded by n.
func shuffled(n int) []int {
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	r := xrand.New(uint64(n))
	xrand.ShuffleSlice(r, order)
	return order
}

// ClaimOrders names the three schedules every invariance test runs under.
var ClaimOrders = []struct {
	Name  string
	Order func(n int) []int
}{{"ascending", nil}, {"reversed", reversed}, {"shuffled", shuffled}}
