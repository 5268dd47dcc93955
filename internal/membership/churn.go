package membership

import "gossipkit/internal/xrand"

// Unsubscribe removes member id from the group in the SCAMP style: every
// member whose view contains id replaces that entry with a member drawn
// from id's own view (so the leaver donates its arcs, preserving
// connectivity), and id's view is cleared. Entries that cannot be replaced
// (the donor view is exhausted or would create self-loops/duplicates) are
// dropped. It returns the number of arcs the leaver donated — callers use
// it to gauge how much connectivity a departure preserved.
func (pv *PartialViews) Unsubscribe(id int, r *xrand.RNG) int {
	if id < 0 || id >= len(pv.views) {
		return 0
	}
	donated := 0
	donors := append([]int32(nil), pv.views[id]...)
	for node := range pv.views {
		if node == id {
			continue
		}
		v := pv.views[node]
		w := v[:0]
		for _, e := range v {
			if int(e) != id {
				w = append(w, e)
				continue
			}
			// Try to donate one of the leaver's contacts.
			for tries := 0; tries < 4 && len(donors) > 0; tries++ {
				d := donors[r.Intn(len(donors))]
				if int(d) != node && !pv.contains(node, int(d)) {
					w = append(w, d)
					donated++
					break
				}
			}
		}
		pv.views[node] = w
	}
	pv.views[id] = nil
	return donated
}

// Subscribe adds a new member via an existing contact, running the same
// SCAMP-inspired forwarding as NewPartialViews does at build time — the
// same joiner, after one pass over the views to seed its stamps for this
// id. The id must be a currently empty slot (e.g. after Unsubscribe) or an
// index beyond no view; Subscribe grows the view table as needed.
func (pv *PartialViews) Subscribe(id, contact, copies int, r *xrand.RNG) {
	for id >= len(pv.views) {
		pv.views = append(pv.views, nil)
	}
	if contact < 0 || contact >= len(pv.views) || contact == id {
		return
	}
	j := joiner{pv: pv, holds: make([]int32, len(pv.views))}
	for node := range pv.views {
		j.holds[node] = -1 // no member id is negative
		if pv.contains(node, id) {
			j.holds[node] = int32(id)
		}
	}
	j.join(id, contact, copies, r)
}

// References returns how many views contain id (its in-degree).
func (pv *PartialViews) References(id int) int {
	count := 0
	for node := range pv.views {
		if node != id && pv.contains(node, id) {
			count++
		}
	}
	return count
}
