package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersAndRatios(t *testing.T) {
	r := NewWithSDP([]float64{1, 2, 4, 8})
	if got := r.TargetRatios(); len(got) != 3 || got[0] != 2 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("target ratios %v", got)
	}
	// Class i sees mean delay 8/2^i: exact proportional differentiation.
	for class := 0; class < 4; class++ {
		for k := 0; k < 100; k++ {
			d := 8 / math.Pow(2, float64(class))
			r.Arrival(class, 500, 0)
			r.Departure(class, 500, d, d)
		}
	}
	r.Drop(1, 0)
	s := r.Snapshot()
	if s.Classes[1].Drops != 1 || s.Classes[0].Arrivals != 100 || s.Classes[0].DepartedBytes != 50000 {
		t.Fatalf("counters %+v", s.Classes[1])
	}
	for i, ratio := range s.Ratios {
		if math.Abs(ratio-2) > 1e-9 {
			t.Errorf("ratio[%d] = %g, want 2", i, ratio)
		}
	}
	dev, pairs := s.MaxDeviation()
	if pairs != 3 || dev > 1e-9 {
		t.Fatalf("deviation %g over %d pairs", dev, pairs)
	}
	if a, d, drops := s.Totals(); a != 400 || d != 400 || drops != 1 {
		t.Fatalf("totals %d %d %d", a, d, drops)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Arrival(0, 500, 0)
	r.Departure(0, 500, 1, 1)
	r.Drop(0, 1)
	if r.NumClasses() != 0 || len(r.Snapshot().Classes) != 0 || r.TargetRatios() != nil {
		t.Fatal("nil registry not inert")
	}
}

func TestRegistryOutOfRangeClassIgnored(t *testing.T) {
	r := New(2)
	r.Arrival(-1, 1, 0)
	r.Arrival(7, 1, 0)
	r.Departure(7, 1, 0, 0)
	r.Drop(-3, 0)
	if a, d, drops := r.Snapshot().Totals(); a+d+drops != 0 {
		t.Fatalf("out-of-range events recorded: %d %d %d", a, d, drops)
	}
}

func TestTraceHooks(t *testing.T) {
	r := New(2)
	var events []string
	r.OnEnqueue = func(class int, now float64) { events = append(events, fmt.Sprintf("enq c%d @%g", class, now)) }
	r.OnDequeue = func(class int, now, delay float64) {
		events = append(events, fmt.Sprintf("deq c%d @%g w%g", class, now, delay))
	}
	r.OnDrop = func(class int, now float64) { events = append(events, fmt.Sprintf("drop c%d @%g", class, now)) }
	r.Arrival(1, 100, 5)
	r.Departure(1, 100, 9, 4)
	r.Drop(0, 10)
	want := []string{"enq c1 @5", "deq c1 @9 w4", "drop c0 @10"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", events, want)
	}
}

func TestSnapshotSubWindow(t *testing.T) {
	r := NewWithSDP([]float64{1, 2})
	r.Arrival(0, 100, 0)
	r.Departure(0, 100, 4, 4)
	r.Arrival(1, 100, 0)
	r.Departure(1, 100, 2, 2)
	first := r.Snapshot()

	// Second window: ratio flips to 8/2 = 4.
	r.Arrival(0, 100, 5)
	r.Departure(0, 100, 13, 8)
	r.Arrival(1, 100, 5)
	r.Departure(1, 100, 7, 2)
	total := r.Snapshot()

	window := total.Sub(first)
	if window.Classes[0].Departures != 1 || window.Classes[0].Arrivals != 1 {
		t.Fatalf("window counters %+v", window.Classes[0])
	}
	if got := window.Ratios[0]; math.Abs(got-4) > 4*RelError {
		t.Errorf("window ratio %g, want ≈4", got)
	}
	if got := total.Ratios[0]; math.Abs(got-3) > 3*RelError {
		t.Errorf("cumulative ratio %g, want ≈3", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewWithSDP([]float64{1, 2, 4, 8})
	const (
		workers = 8
		perW    = 10000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				class := (w + i) % 4
				r.Arrival(class, 500, float64(i))
				r.Departure(class, 500, float64(i)+1, 1)
			}
		}()
	}
	// Snapshot concurrently with recording to exercise the lock-free
	// paths under race.
	for i := 0; i < 50; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	s := r.Snapshot()
	arrivals, departures, _ := s.Totals()
	if arrivals != workers*perW || departures != workers*perW {
		t.Fatalf("lost events: %d arrivals %d departures", arrivals, departures)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewWithSDP([]float64{1, 2})
	for k := 0; k < 10; k++ {
		r.Arrival(0, 100, 0)
		r.Departure(0, 100, 4, 4)
		r.Arrival(1, 100, 0)
		r.Departure(1, 100, 2, 2)
	}
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Classes []struct {
			Class      int     `json:"class"`
			Departures uint64  `json:"departures"`
			DelayMean  float64 `json:"delay_mean"`
		} `json:"classes"`
		Ratios       []float64 `json:"delay_ratios"`
		TargetRatios []float64 `json:"target_ratios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Classes) != 2 || m.Classes[0].Departures != 10 || m.Classes[1].Departures != 10 {
		t.Fatalf("metrics classes %+v", m.Classes)
	}
	if len(m.Ratios) != 1 || math.Abs(m.Ratios[0]-2) > 2*RelError {
		t.Fatalf("metrics ratios %v", m.Ratios)
	}
	if len(m.TargetRatios) != 1 || m.TargetRatios[0] != 2 {
		t.Fatalf("metrics targets %v", m.TargetRatios)
	}

	text, err := http.Get(base + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	buf := make([]byte, 4096)
	n, _ := text.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "class") || !strings.Contains(body, "ratio 0/1") {
		t.Fatalf("text view:\n%s", body)
	}

	pp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", pp.StatusCode)
	}
}

// TestRecordPathDoesNotAllocate asserts the satellite requirement: with
// trace hooks disabled (nil), the full record path — counters plus
// histogram — performs zero allocations per packet.
func TestRecordPathDoesNotAllocate(t *testing.T) {
	r := NewWithSDP([]float64{1, 2, 4, 8})
	delay := 3.7
	if n := testing.AllocsPerRun(1000, func() {
		r.Arrival(2, 500, 0)
		r.Departure(2, 500, delay, delay)
		r.Drop(2, delay)
	}); n != 0 {
		t.Fatalf("record path allocates %v per run, want 0", n)
	}
	// A nil registry (telemetry disabled entirely) must also be free.
	var nilReg *Registry
	if n := testing.AllocsPerRun(1000, func() {
		nilReg.Arrival(2, 500, 0)
		nilReg.Departure(2, 500, delay, delay)
	}); n != 0 {
		t.Fatalf("nil-registry path allocates %v per run, want 0", n)
	}
}
