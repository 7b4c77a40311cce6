package classify

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestFlowTableInsertLookup(t *testing.T) {
	ft := NewFlowTable(FlowTableConfig{})
	if _, ok := ft.Lookup(key(1), 0); ok {
		t.Fatal("lookup in empty table must miss")
	}
	ft.Insert(key(1), 3, 10)
	if cls, ok := ft.Lookup(key(1), 11); !ok || cls != 3 {
		t.Fatalf("got (%d,%v), want (3,true)", cls, ok)
	}
	// In-place update.
	ft.Insert(key(1), 5, 12)
	if cls, _ := ft.Lookup(key(1), 13); cls != 5 {
		t.Fatalf("update: got class %d, want 5", cls)
	}
	if ft.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ft.Len())
	}
	st := ft.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !strings.Contains(ft.String(), "resident=1") {
		t.Errorf("String = %q", ft.String())
	}
}

func TestFlowTableTTLEviction(t *testing.T) {
	ft := NewFlowTable(FlowTableConfig{TTL: 100})
	ft.Insert(key(1), 2, 0)
	// Within TTL: hit, and the hit refreshes the idle timer.
	if _, ok := ft.Lookup(key(1), 100); !ok {
		t.Fatal("entry at exactly TTL age must still be live")
	}
	if _, ok := ft.Lookup(key(1), 200); !ok {
		t.Fatal("refreshed entry must still be live")
	}
	// Idle past TTL: lazily evicted, reported as a miss.
	if _, ok := ft.Lookup(key(1), 301); ok {
		t.Fatal("stale entry must be evicted on lookup")
	}
	if ft.Len() != 0 {
		t.Fatalf("Len = %d after lazy eviction, want 0", ft.Len())
	}
	if ev := ft.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestFlowTableSweep(t *testing.T) {
	ft := NewFlowTable(FlowTableConfig{TTL: 100, Shards: 4})
	for i := 0; i < 200; i++ {
		ft.Insert(key(i), i%4, int64(i))
	}
	// At now=250, entries touched at <150 (keys 0..149) are stale.
	ft.Sweep(250)
	for i := 0; i < 200; i++ {
		_, ok := ft.Lookup(key(i), 250)
		if want := i >= 150; ok != want {
			t.Fatalf("key %d: live=%v, want %v", i, ok, want)
		}
	}
	if got := ft.Len(); got != 50 {
		t.Fatalf("Len = %d after sweep+lookups, want 50", got)
	}
	// TTL=0 tables never expire and Sweep is a no-op.
	ft0 := NewFlowTable(FlowTableConfig{})
	ft0.Insert(key(1), 1, 0)
	ft0.Sweep(1 << 40)
	if _, ok := ft0.Lookup(key(1), 1<<40); !ok {
		t.Fatal("TTL=0 entry must never expire")
	}
}

// TestFlowTableEvictionRefillIdentity: evicting a flow and re-inserting
// it must yield exactly the answers the table gave before — the
// ISSUE's eviction/refill identity property, which the classifier relies
// on for stable classification across idle periods.
func TestFlowTableEvictionRefillIdentity(t *testing.T) {
	cfg, err := LoadConfig("testdata/full.conf")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, FlowTableConfig{TTL: 100, Shards: 2, InitialFlows: 8})
	if err != nil {
		t.Fatal(err)
	}
	const flows = 300
	before := make([]int, flows)
	for i := 0; i < flows; i++ {
		k := key(i)
		cls, ok := c.Classify(k, uint8(i%64), 0)
		if !ok {
			t.Fatalf("flow %d unclassified", i)
		}
		before[i] = cls
	}
	// Expire everything, then force eviction.
	c.Table().Sweep(1000)
	// Refill: answers must be identical.
	for i := 0; i < flows; i++ {
		cls, ok := c.Classify(key(i), uint8(i%64), 2000)
		if !ok || cls != before[i] {
			t.Fatalf("flow %d: class %d (%v) after refill, was %d", i, cls, ok, before[i])
		}
	}
}

// TestFlowTableGrowth: tables start small and grow without losing or
// corrupting entries.
func TestFlowTableGrowth(t *testing.T) {
	ft := NewFlowTable(FlowTableConfig{Shards: 2, InitialFlows: 8, MaxFlows: 1 << 16})
	const n = 5000
	for i := 0; i < n; i++ {
		ft.Insert(key(i), i%7, int64(i))
	}
	if ft.Len() != n {
		t.Fatalf("Len = %d, want %d", ft.Len(), n)
	}
	for i := 0; i < n; i++ {
		cls, ok := ft.Lookup(key(i), n)
		if !ok || cls != i%7 {
			t.Fatalf("key %d: got (%d,%v), want (%d,true)", i, cls, ok, i%7)
		}
	}
}

// TestFlowTableCapEviction: at MaxFlows the table stays bounded by
// evicting the least-recently-touched entry near the insertion point,
// and the newest flow is always admitted.
func TestFlowTableCapEviction(t *testing.T) {
	ft := NewFlowTable(FlowTableConfig{Shards: 1, MaxFlows: 64})
	for i := 0; i < 1000; i++ {
		ft.Insert(key(i), i%3, int64(i))
		if cls, ok := ft.Lookup(key(i), int64(i)); !ok || cls != i%3 {
			t.Fatalf("key %d not admitted: (%d,%v)", i, cls, ok)
		}
		if ft.Len() > 64 {
			t.Fatalf("resident %d exceeds MaxFlows 64", ft.Len())
		}
	}
	if ev := ft.Stats().Evictions; ev == 0 {
		t.Fatal("cap churn must evict")
	}
}

// TestFlowTableChurnAgainstModel: drive a small table hard — inserts,
// refreshing lookups and sweeps with a deterministic PRNG — and check it
// against a map-based model. Live entries must never be lost or
// corrupted by backward-shift deletions; expired entries must miss.
func TestFlowTableChurnAgainstModel(t *testing.T) {
	const ttl = 50
	ft := NewFlowTable(FlowTableConfig{Shards: 1, InitialFlows: 8, MaxFlows: 1 << 12, TTL: ttl})
	type entry struct {
		class   int
		touched int64
	}
	model := make(map[int]entry) // key index → entry
	rng := rand.New(rand.NewSource(42))
	now := int64(0)
	for step := 0; step < 20000; step++ {
		now += int64(rng.Intn(3))
		i := rng.Intn(400)
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // insert/update
			cls := rng.Intn(8)
			ft.Insert(key(i), cls, now)
			model[i] = entry{class: cls, touched: now}
		case 4, 5, 6, 7: // lookup (refreshes or lazily evicts)
			cls, ok := ft.Lookup(key(i), now)
			m, inModel := model[i]
			if inModel && now-m.touched > ttl {
				// Stale: the table must miss (and evict).
				if ok {
					t.Fatalf("step %d: stale key %d hit with class %d", step, i, cls)
				}
				delete(model, i)
			} else if inModel {
				if !ok || cls != m.class {
					t.Fatalf("step %d: live key %d got (%d,%v), want (%d,true)", step, i, cls, ok, m.class)
				}
				m.touched = now
				model[i] = m
			} else if ok {
				t.Fatalf("step %d: unknown key %d hit with class %d", step, i, cls)
			}
		case 8: // sweep
			ft.Sweep(now)
			for k, m := range model {
				if now-m.touched > ttl {
					delete(model, k)
				}
			}
			// Swept-out flows leave: residency stays bounded by the live
			// population, however many keys went idle.
			if got := ft.Stats().Resident; got != len(model) {
				t.Fatalf("step %d: %d resident flows after a sweep, %d live", step, got, len(model))
			}
		case 9: // time jump
			now += ttl / 2
		}
	}
	// Final audit: every live model entry present and correct. (The table
	// may briefly hold stale stragglers a best-effort sweep missed; those
	// evict on lookup and are not live.)
	for i, m := range model {
		if now-m.touched > ttl {
			continue
		}
		cls, ok := ft.Lookup(key(i), now)
		if !ok || cls != m.class {
			t.Fatalf("final: key %d got (%d,%v), want (%d,true)", i, cls, ok, m.class)
		}
	}
}

// TestFlowTableConcurrent: shard locking under concurrent mixed load
// (mostly a -race exercise).
func TestFlowTableConcurrent(t *testing.T) {
	// Each goroutine's clock is its own loop index, so the TTL must exceed
	// the largest skew between them (2000): otherwise a goroutine far ahead
	// sweeps a lagging one's entry between its Insert and its Lookup.
	ft := NewFlowTable(FlowTableConfig{Shards: 8, TTL: 4000})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key(g*2000 + i)
				ft.Insert(k, g, int64(i))
				if cls, ok := ft.Lookup(k, int64(i)); !ok || cls != g {
					t.Errorf("goroutine %d: key %d got (%d,%v)", g, i, cls, ok)
					return
				}
				if i%256 == 0 {
					ft.Sweep(int64(i))
					ft.Len()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFlowTableLookupAllocs: the lookup path — hit, miss and lazy
// eviction — must be allocation-free.
func TestFlowTableLookupAllocs(t *testing.T) {
	ft := NewFlowTable(FlowTableConfig{TTL: 1000})
	for i := 0; i < 1000; i++ {
		ft.Insert(key(i), i%5, 0)
	}
	if n := testing.AllocsPerRun(200, func() {
		ft.Lookup(key(17), 1)
	}); n != 0 {
		t.Fatalf("hit path allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		ft.Lookup(key(999999), 1)
	}); n != 0 {
		t.Fatalf("miss path allocates %v per run, want 0", n)
	}
	// Steady-state insert (no growth): pre-sized table, rotating updates.
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		ft.Insert(key(i%1000), 1, 2)
		i++
	}); n != 0 {
		t.Fatalf("steady-state insert allocates %v per run, want 0", n)
	}
}

func TestNextPow2(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 128}} {
		if got := nextPow2(c[0]); got != c[1] {
			t.Errorf("nextPow2(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}
