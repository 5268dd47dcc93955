package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// shardEvent is one node of the deterministic synthetic workload: event id
// fires on shard at time at, and (below the id cap) spawns two children on
// the other shard after at least the lookahead. The tree is a pure
// function of the root set, so any correct scheduler fires exactly the
// same (shard, time, id) multiset.
type shardEvent struct {
	id    int
	shard int
	at    Time
}

const (
	shardTestLookahead = 10 * time.Millisecond
	shardTestIDCap     = 4096
)

func (e shardEvent) children(shards int) []shardEvent {
	if e.id >= shardTestIDCap {
		return nil
	}
	var out []shardEvent
	for c := 0; c < 2; c++ {
		id := e.id*2 + 1 + c
		d := Time(shardTestLookahead) + Time(id%97)*Time(13*time.Microsecond) + Time(id)
		out = append(out, shardEvent{id: id, shard: (e.shard + 1 + c) % shards, at: e.at + d})
	}
	return out
}

func shardTestRoots(shards int) []shardEvent {
	var roots []shardEvent
	for i := 0; i < 8; i++ {
		roots = append(roots, shardEvent{
			id:    i,
			shard: i % shards,
			at:    Time(i) * Time(3*time.Millisecond),
		})
	}
	return roots
}

type firing struct {
	at Time
	id int
}

// runShardedWorkload executes the synthetic tree on a ShardGroup with
// per-pair cross-shard buffers flushed at barriers, returning the
// per-shard firing logs.
func runShardedWorkload(t *testing.T, shards int) [][]firing {
	t.Helper()
	kernels := make([]*Kernel, shards)
	for s := range kernels {
		kernels[s] = New()
	}
	control := New()
	logs := make([][]firing, shards)
	bufs := make([][]shardEvent, shards*shards)

	var schedule func(from int, e shardEvent)
	handlers := make([]HandlerID, shards)
	for s := 0; s < shards; s++ {
		s := s
		handlers[s] = kernels[s].RegisterHandler(func(now Time, node, _ int32) {
			if n := len(logs[s]); n > 0 && now < logs[s][n-1].at {
				t.Errorf("shard %d fired event %d at %v after %v", s, node, now, logs[s][n-1].at)
			}
			logs[s] = append(logs[s], firing{at: now, id: int(node)})
			for _, c := range (shardEvent{id: int(node), shard: s, at: now}).children(shards) {
				schedule(s, c)
			}
		})
	}
	schedule = func(from int, e shardEvent) {
		if e.shard == from {
			kernels[from].Schedule(e.at, handlers[from], int32(e.id), 0)
			return
		}
		bufs[from*shards+e.shard] = append(bufs[from*shards+e.shard], e)
	}
	for _, e := range shardTestRoots(shards) {
		kernels[e.shard].Schedule(e.at, handlers[e.shard], int32(e.id), 0)
	}

	g := NewShardGroup(kernels, control, shardTestLookahead)
	flush := func(wend Time) {
		for dst := 0; dst < shards; dst++ {
			for src := 0; src < shards; src++ {
				buf := bufs[src*shards+dst]
				for _, e := range buf {
					if e.at < wend {
						t.Errorf("cross-shard event %d at %v inside window ending %v", e.id, e.at, wend)
					}
					kernels[dst].Schedule(e.at, handlers[dst], int32(e.id), 0)
				}
				bufs[src*shards+dst] = buf[:0]
			}
		}
	}
	buffered := func() int {
		total := 0
		for _, b := range bufs {
			total += len(b)
		}
		return total
	}
	if err := g.Run(flush, buffered, nil); err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	return logs
}

// runOracleWorkload executes the same tree on one kernel, logging by the
// event's home shard.
func runOracleWorkload(t *testing.T, shards int) [][]firing {
	t.Helper()
	k := New()
	logs := make([][]firing, shards)
	var h HandlerID
	h = k.RegisterHandler(func(now Time, node, payload int32) {
		s := int(payload)
		logs[s] = append(logs[s], firing{at: now, id: int(node)})
		for _, c := range (shardEvent{id: int(node), shard: s, at: now}).children(shards) {
			k.Schedule(c.at, h, int32(c.id), int32(c.shard))
		}
	})
	for _, e := range shardTestRoots(shards) {
		k.Schedule(e.at, h, int32(e.id), int32(e.shard))
	}
	if err := k.RunAll(); err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	return logs
}

func sortFirings(logs [][]firing) {
	for _, l := range logs {
		sort.Slice(l, func(i, j int) bool {
			if l[i].at != l[j].at {
				return l[i].at < l[j].at
			}
			return l[i].id < l[j].id
		})
	}
}

func TestShardGroupMatchesSingleKernel(t *testing.T) {
	for _, shards := range []int{2, 3, 4} {
		sharded := runShardedWorkload(t, shards)
		oracle := runOracleWorkload(t, shards)
		// Firing order within a shard is nondecreasing in time by
		// construction (checked inside the handler); same-time ties may
		// interleave differently, so compare the sorted logs.
		sortFirings(sharded)
		sortFirings(oracle)
		for s := 0; s < shards; s++ {
			if len(sharded[s]) != len(oracle[s]) {
				t.Fatalf("shards=%d shard %d fired %d events, oracle %d",
					shards, s, len(sharded[s]), len(oracle[s]))
			}
			for i := range sharded[s] {
				if sharded[s][i] != oracle[s][i] {
					t.Fatalf("shards=%d shard %d firing %d: got %+v want %+v",
						shards, s, i, sharded[s][i], oracle[s][i])
				}
			}
		}
	}
}

func TestShardGroupControlBarrier(t *testing.T) {
	const shards = 3
	kernels := make([]*Kernel, shards)
	for s := range kernels {
		kernels[s] = New()
	}
	control := New()
	cut := Time(50 * time.Millisecond)

	flag := false
	type obs struct {
		at   Time
		flag bool
	}
	seen := make([][]obs, shards)
	for s := 0; s < shards; s++ {
		s := s
		h := kernels[s].RegisterHandler(func(now Time, _, _ int32) {
			seen[s] = append(seen[s], obs{at: now, flag: flag})
		})
		for i := 0; i < 100; i++ {
			kernels[s].Schedule(Time(i)*Time(time.Millisecond), h, 0, 0)
		}
	}
	control.At(cut, func() {
		// Workers are parked at the barrier: every shard clock reads the
		// control event's instant, and no shard event at or after it has
		// fired yet.
		flag = true
		for s, k := range kernels {
			if k.Now() != cut {
				t.Errorf("shard %d clock %v at control event %v", s, k.Now(), cut)
			}
			if n := len(seen[s]); n > 0 && seen[s][n-1].at >= cut {
				t.Errorf("shard %d fired its event at %v before the control event at %v", s, seen[s][n-1].at, cut)
			}
		}
	})

	g := NewShardGroup(kernels, control, 5*time.Millisecond)
	if err := g.Run(nil, nil, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	for s := 0; s < shards; s++ {
		if len(seen[s]) != 100 {
			t.Fatalf("shard %d fired %d events, want 100", s, len(seen[s]))
		}
		for _, o := range seen[s] {
			if want := o.at >= cut; o.flag != want {
				t.Fatalf("shard %d event at %v saw flag=%v", s, o.at, o.flag)
			}
		}
	}
}

func TestShardGroupBudget(t *testing.T) {
	kernels := []*Kernel{New(), New()}
	control := New()
	h := kernels[0].RegisterHandler(func(Time, int32, int32) {})
	for i := 0; i < 10; i++ {
		kernels[0].Schedule(Time(i), h, 0, 0)
	}
	kernels[0].SetBudget(3)
	g := NewShardGroup(kernels, control, time.Millisecond)
	if err := g.Run(nil, nil, nil); err != ErrBudget {
		t.Fatalf("got %v, want ErrBudget", err)
	}
}

// TestShardGroupTimeRange: a flush that schedules past MaxTime into a shard
// with nothing else queued still fails the group with ErrTimeRange — that
// kernel's Run is never called again, so the group asks it.
func TestShardGroupTimeRange(t *testing.T) {
	kernels := []*Kernel{New(), New()}
	h := kernels[1].RegisterHandler(func(Time, int32, int32) { t.Error("an event past MaxTime fired") })
	parked := 1
	flush := func(Time) {
		for ; parked > 0; parked-- {
			kernels[1].Schedule(MaxTime.Add(time.Nanosecond), h, 0, 0)
		}
	}
	g := NewShardGroup(kernels, New(), time.Millisecond)
	if err := g.Run(flush, func() int { return parked }, nil); !errors.Is(err, ErrTimeRange) {
		t.Fatalf("got %v, want ErrTimeRange", err)
	}
}

// TestShardGroupFlushesBeforeFirstWindow: a message parked before Run (a
// seed's cross-shard send) is handed over before the first window is cut,
// so it fires at its own time. Beside a local event at the same time, it
// used to wait for that window's end and fire one lookahead late.
func TestShardGroupFlushesBeforeFirstWindow(t *testing.T) {
	const at = Time(3 * time.Millisecond)
	kernels := []*Kernel{New(), New()}
	var fired Time
	local := kernels[0].RegisterHandler(func(Time, int32, int32) {})
	remote := kernels[1].RegisterHandler(func(now Time, _, _ int32) { fired = now })
	kernels[0].Schedule(at, local, 0, 0)
	parked := 1
	flush := func(wend Time) { // clamps to the barrier, as simnet.ShardedNet.Flush does
		for ; parked > 0; parked-- {
			kernels[1].Schedule(max(at, wend), remote, 0, 0)
		}
	}
	g := NewShardGroup(kernels, New(), time.Duration(at))
	if err := g.Run(flush, func() int { return parked }, nil); err != nil {
		t.Fatal(err)
	}
	if fired != at {
		t.Errorf("the parked message fired at %v, want %v", fired, at)
	}
}

func TestShardGroupOnBarrier(t *testing.T) {
	kernels := []*Kernel{New(), New()}
	control := New()
	h := kernels[0].RegisterHandler(func(Time, int32, int32) {})
	for i := 0; i < 50; i++ {
		kernels[0].Schedule(Time(i)*Time(time.Millisecond), h, 0, 0)
	}
	var barriers int
	var lastNow Time
	var lastFired uint64
	g := NewShardGroup(kernels, control, 7*time.Millisecond)
	err := g.Run(nil, nil, func(now Time, fired uint64) {
		barriers++
		if now < lastNow || fired < lastFired {
			t.Fatalf("barrier went backwards: now %v->%v fired %d->%d", lastNow, now, lastFired, fired)
		}
		lastNow, lastFired = now, fired
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if barriers == 0 || lastFired != 50 {
		t.Fatalf("barriers=%d fired=%d, want >0 barriers and 50 fired", barriers, lastFired)
	}
}

func TestShardGroupSingleDegenerate(t *testing.T) {
	k := New()
	h := k.RegisterHandler(func(Time, int32, int32) {})
	for i := 0; i < 5; i++ {
		k.Schedule(Time(i), h, 0, 0)
	}
	g := NewShardGroup([]*Kernel{k}, New(), 0)
	if err := g.Run(nil, nil, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if k.Fired() != 5 {
		t.Fatalf("fired %d, want 5", k.Fired())
	}
}

// TestShardGroupControlFirstOneShard: on one shard, with no lookahead, a
// control event still fires ahead of the shard events due at its instant
// — those queued before it and those its own firing queues — and what it
// schedules there fires at that instant, in the same order as at any
// shard count.
func TestShardGroupControlFirstOneShard(t *testing.T) {
	k, control := New(), New()
	var log []string
	h := k.RegisterHandler(func(now Time, node, _ int32) {
		log = append(log, fmt.Sprintf("shard %d@%v", node, now))
	})
	k.Schedule(2, h, 1, 0)
	k.Schedule(3, h, 2, 0)
	k.Schedule(3, h, 3, 0)
	control.At(3, func() {
		if k.Now() != 3 {
			t.Errorf("shard clock %v at the control event at 3", k.Now())
		}
		log = append(log, "control@3")
		k.Schedule(k.Now(), h, 4, 0)
	})
	control.At(5, func() { log = append(log, "control@5") })
	if err := NewShardGroup([]*Kernel{k}, control, 0).Run(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := "shard 1@2ns control@3 shard 2@3ns shard 3@3ns shard 4@3ns control@5"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("fire order %q, want %q", got, want)
	}
}

func TestShardGroupEach(t *testing.T) {
	kernels := []*Kernel{New(), New(), New(), New()}
	g := NewShardGroup(kernels, New(), time.Millisecond)
	visited := make([]bool, len(kernels))
	g.Each(func(s int) { visited[s] = true })
	for s, v := range visited {
		if !v {
			t.Fatalf("shard %d not visited", s)
		}
	}
}
