package netio

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pdds/internal/core"
	"pdds/internal/link"
)

// goldenTrace reads a committed simulator trace: the arrivals in order, and
// the departures in service order with their service instants. A D line's
// time is the transmission's finish; its service instant is arrival + wait.
func goldenTrace(t *testing.T, kind core.Kind) (arrivals []oracleArrival, departs []pacerDeparture) {
	t.Helper()
	path := filepath.Join("..", "conformance", "testdata", "golden", string(kind)+"_golden.trace")
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	arrived := make(map[uint64]float64)
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 5 || (f[0] != "A" && f[0] != "D") {
			continue
		}
		at, err1 := strconv.ParseFloat(f[1], 64)
		id, err2 := strconv.ParseUint(f[2], 10, 64)
		class, err3 := strconv.Atoi(f[3])
		v, err4 := strconv.ParseFloat(f[4], 64) // size or wait
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			t.Fatalf("%s: %q: %v", path, sc.Text(), err)
		}
		if f[0] == "A" {
			arrived[id] = at
			arrivals = append(arrivals, oracleArrival{at: at, pub: at, class: class, id: id, size: int64(v)})
		} else {
			departs = append(departs, pacerDeparture{id, arrived[id] + v})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(departs) == 0 {
		t.Fatalf("%s: no departures", path)
	}
	return arrivals, departs
}

// Characterisation: does the production pacer, fed a simulator scenario's
// arrivals, serve the simulator's order? Each kind's committed golden trace
// is replayed through the pacer under four wake schedules, with lateness in
// transmission times of a 1 500-byte packet (≈ 1.2 ms at 10 Mbit/s). With
// exact wakes no departure may differ from the golden in ID or service
// instant. Late wakes are logged, not asserted: they measure how far the
// current semantics — admit everything published, dequeue at wake-up time
// — drift from the simulator's order.
func TestPacerMatchesGoldenTraces(t *testing.T) {
	sdp := []float64{1, 2, 4, 8}
	mtu := 1500 / link.PaperLinkRate
	fixed := func(x float64) func() float64 { return func() float64 { return x * mtu } }
	schedules := []struct {
		name string
		late func() func() float64
	}{
		{"exact", func() func() float64 { return fixed(0) }},
		{"late0.4", func() func() float64 { return fixed(0.4) }},
		{"late2.5", func() func() float64 { return fixed(2.5) }},
		{"uniform0-1.7", func() func() float64 {
			rng := rand.New(rand.NewSource(1))
			return func() float64 { return rng.Float64() * 1.7 * mtu }
		}},
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-9s %10s", "kind", "departures")
	for _, s := range schedules[1:] {
		fmt.Fprintf(&table, " %13s", s.name)
	}
	for _, kind := range core.Kinds() {
		trace, golden := goldenTrace(t, kind)
		fmt.Fprintf(&table, "\n%-9s %10d", kind, len(golden))
		for _, s := range schedules {
			sched, err := core.New(kind, sdp, link.PaperLinkRate)
			if err != nil {
				t.Fatal(err)
			}
			ring := newSPSCRing(len(trace))
			c := newPacer(sched, []*spscRing{ring}, link.PaperLinkRate)
			served := drivePacer(c, trace, func(a oracleArrival, _ float64) { ring.Push(a.packet()) }, s.late())
			order, instant := 0, 0
			for i, g := range golden {
				if served[i].id != g.id {
					order++
				} else if math.Abs(served[i].at-g.at) > 1e-9*math.Abs(g.at) {
					instant++
				}
			}
			if s.name == "exact" {
				if order+instant != 0 {
					t.Errorf("%s: exact wakes: %d of %d departures out of order, %d more at a different instant",
						kind, order, len(golden), instant)
				}
				continue
			}
			fmt.Fprintf(&table, " %13d", order)
		}
	}
	t.Logf("departures out of the simulator's order, of each kind's golden trace:\n%s", table.String())
}

// The zero-allocation gate for the transmit decision: with a warm backlog,
// publishing, merging, extending the batch, taking, serving and advancing
// the link must not allocate, for any discipline.
func TestPacerServeAllocs(t *testing.T) {
	for _, kind := range core.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			f := newBareForwarder(t, kind, 2, []float64{1, 2, 4, 8})
			ring := f.shards[1].xmit
			now := 0.0
			for i := 0; i < 64; i++ {
				ring.Push(&core.Packet{ID: uint64(i), Class: i % 4, Size: oracleSize, Arrival: now})
			}
			p := f.pace.serve(now)
			step := func() {
				now = f.pace.wake()
				p.Arrival = now
				ring.Push(p)
				if !f.pace.extend(now + 1e-9) {
					t.Fatal("a warm backlog behind schedule does not extend the batch")
				}
				p = f.pace.take(now)
				ring.Push(p)
				p = f.pace.serve(now)
			}
			for i := 0; i < 1000; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
				t.Fatalf("%s: pacer admit/extend/take/serve allocates %.2f times per packet, want 0", kind, allocs)
			}
		})
	}
}

// A queue that runs dry while an egress batch is extending keeps the busy
// period's credit: only an empty serve restarts the link clock.
func TestPacerBatchKeepsCredit(t *testing.T) {
	sched, err := core.New(core.KindFCFS, []float64{1}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ring := newSPSCRing(4)
	c := newPacer(sched, []*spscRing{ring}, 1000) // 100-byte packets: 0.1 s each
	ring.Push(&core.Packet{ID: 1, Size: 100})
	c.serve(0) // busy period starts: the link frees at 0.1
	if c.extend(0.5) {
		t.Fatal("extend with nothing queued")
	}
	ring.Push(&core.Packet{ID: 2, Size: 100, Arrival: 0.5})
	c.serve(0.5)
	if got := c.wake(); got != 0.2 {
		t.Fatalf("after a dry extend the link frees at %v, want 0.2 (credit kept)", got)
	}
	if c.serve(0.6) != nil {
		t.Fatal("served from an empty queue")
	}
	ring.Push(&core.Packet{ID: 3, Size: 100, Arrival: 0.7})
	c.serve(0.7)
	if got := c.wake(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("after an empty serve the link frees at %v, want 0.8 (clock restarted)", got)
	}
}
