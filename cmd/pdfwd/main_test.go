package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pdds"
)

// listenUDPRetry binds addr, retrying briefly: on loaded CI machines a
// just-released port can stay unavailable for a moment.
func listenUDPRetry(t *testing.T, addr *net.UDPAddr) *net.UDPConn {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.ListenUDP("udp", addr)
		if err == nil {
			return conn
		}
		if time.Now().After(deadline) {
			t.Fatalf("bind %v: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitFor polls cond with a deadline instead of a fixed sleep, failing the
// test with desc if the condition never holds.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, desc string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestParseArgs(t *testing.T) {
	opts, err := parseArgs([]string{
		"-listen", "127.0.0.1:0", "-forward", "127.0.0.1:9",
		"-rate", "250000", "-sdp", "1,4", "-metrics-addr", "127.0.0.1:0",
		"-stats", "1s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.cfg.MetricsAddr != "127.0.0.1:0" || opts.cfg.RateBps != 250000 ||
		len(opts.cfg.SDP) != 2 || opts.cfg.SDP[1] != 4 || opts.interval != time.Second {
		t.Fatalf("parsed %+v", opts)
	}
	if _, err := parseArgs([]string{"-sdp", "not,numbers"}); err == nil {
		t.Fatal("bad -sdp accepted")
	}
	if opts.cfg.Adapt {
		t.Fatal("adaptation on by default")
	}
	opts, err = parseArgs([]string{"-adapt", "-adapt-interval", "250ms"})
	if err != nil {
		t.Fatal(err)
	}
	if !opts.cfg.Adapt || opts.cfg.AdaptInterval != 250*time.Millisecond {
		t.Fatalf("adapt flags not parsed: %+v", opts.cfg)
	}
}

// A negative -adapt-interval parses, but starting the forwarder must
// refuse it with an error rather than panic in the controller goroutine.
func TestNegativeAdaptIntervalRefused(t *testing.T) {
	opts, err := parseArgs([]string{
		"-listen", "127.0.0.1:0", "-forward", "127.0.0.1:9", "-adapt", "-adapt-interval=-1s",
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := pdds.StartForwarderWithConfig(opts.cfg)
	if err == nil {
		fwd.Close()
		t.Fatal("negative -adapt-interval accepted")
	}
	if !strings.Contains(err.Error(), "ControlInterval") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestParseArgsClasses(t *testing.T) {
	opts, err := parseArgs([]string{"-classes", "testdata/classes.conf"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.cfg.Classes == nil || opts.cfg.Classes.NumClasses() != 2 {
		t.Fatalf("classes not loaded: %+v", opts.cfg.Classes)
	}
	if opts.cfg.SDP != nil {
		t.Fatalf("default -sdp should yield to the class config, got %v", opts.cfg.SDP)
	}
	if opts.cfg.DistrustHeader || opts.cfg.FlowTTL != 2*time.Minute {
		t.Fatalf("classifier defaults: %+v", opts.cfg)
	}
	if got := opts.cfg.Classes.SDPs(); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("derived SDPs %v, want [1 4]", got)
	}

	// Explicit -sdp of matching width overrides the derived SDPs.
	opts, err = parseArgs([]string{"-classes", "testdata/classes.conf", "-sdp", "1,8",
		"-distrust-class", "true", "-flow-ttl", "30s"})
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.cfg.SDP) != 2 || opts.cfg.SDP[1] != 8 ||
		!opts.cfg.DistrustHeader || opts.cfg.FlowTTL != 30*time.Second {
		t.Fatalf("parsed %+v", opts.cfg)
	}

	table := classTable(opts.cfg.Classes, opts.cfg.Classes.SDPs())
	for _, want := range []string{"0=bulk ddp=4 sdp=1 (default)", "1=interactive ddp=1 sdp=4"} {
		if !strings.Contains(table, want) {
			t.Fatalf("class table %q missing %q", table, want)
		}
	}

	for _, args := range [][]string{
		{"-classes", "testdata/classes.conf", "-sdp", "1,2,4"}, // width mismatch
		{"-distrust-class", "true"},                            // requires -classes
		{"-classes", "testdata/classes.conf", "-distrust-class", "bogus"},
		{"-classes", "testdata/no-such-file.conf"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestForwarderMetricsEndToEnd starts a forwarder exactly as
// `pdfwd -metrics-addr 127.0.0.1:0` would, pushes classed probe traffic
// through it, and asserts that /metrics reports per-class counts and a
// delay ratio consistent with the SDPs.
func TestForwarderMetricsEndToEnd(t *testing.T) {
	recv := listenUDPRetry(t, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	defer recv.Close()

	opts, err := parseArgs([]string{
		"-listen", "127.0.0.1:0",
		"-forward", recv.LocalAddr().String(),
		"-rate", "524288", // 512 kbps: 64 KiB/s egress
		"-sched", "wtp",
		"-sdp", "1,4",
		"-metrics-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := pdds.StartForwarderWithConfig(opts.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	maddr := fwd.MetricsAddr()
	if maddr == nil {
		t.Fatal("no metrics address bound")
	}

	send, err := net.Dial("udp", fwd.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	// Saturate the slow egress with interleaved classed probes so WTP
	// has a persistent backlog to differentiate.
	const perClass = 80
	payload := make([]byte, 110) // + header = 128 B datagrams
	for i := 0; i < perClass; i++ {
		for class := uint8(0); class < 2; class++ {
			if _, err := send.Write(pdds.EncodeDatagram(class, uint64(i), payload)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Wait for the egress to drain everything that was admitted.
	waitFor(t, 15*time.Second, func() bool {
		st := fwd.Stats()
		return st.Received >= 2*perClass && st.Forwarded+st.Dropped >= st.Received
	}, "forwarder queue to drain")

	resp, err := http.Get("http://" + maddr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Classes []struct {
			Class      int     `json:"class"`
			Arrivals   uint64  `json:"arrivals"`
			Departures uint64  `json:"departures"`
			DelayMean  float64 `json:"delay_mean"`
			DelayP99   float64 `json:"delay_p99"`
		} `json:"classes"`
		Ratios       []float64 `json:"delay_ratios"`
		TargetRatios []float64 `json:"target_ratios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Classes) != 2 {
		t.Fatalf("classes: %+v", m.Classes)
	}
	for _, c := range m.Classes {
		if c.Arrivals != perClass || c.Departures != perClass {
			t.Errorf("class %d counts: %d arrivals %d departures, want %d each",
				c.Class, c.Arrivals, c.Departures, perClass)
		}
		if c.DelayMean <= 0 || c.DelayP99 < c.DelayMean {
			t.Errorf("class %d delays: mean %g p99 %g", c.Class, c.DelayMean, c.DelayP99)
		}
	}
	if len(m.TargetRatios) != 1 || m.TargetRatios[0] != 4 {
		t.Fatalf("target ratios %v", m.TargetRatios)
	}
	// Consistency with the SDPs: class 0 must wait materially longer
	// than class 1, in the direction and rough magnitude the SDP ratio
	// (4) dictates. A short saturated burst is noisy, so accept half
	// the target but require clear differentiation.
	if len(m.Ratios) != 1 || !(m.Ratios[0] > 2) {
		t.Fatalf("delay ratio %v not consistent with SDP target 4", m.Ratios)
	}

	// The human view and the facade summary line render the same data.
	text, err := http.Get("http://" + maddr.String() + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	body, err := io.ReadAll(text.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "ratio 0/1") {
		t.Fatalf("text view missing ratio line:\n%s", body)
	}
	line := summarize(fwd.Stats(), fwd.ClassStats(), fwd.DelayRatios(), nil)
	if !strings.Contains(line, "received=160") || !strings.Contains(line, "ratios=") {
		t.Fatalf("summary line %q", line)
	}
}

// TestForwarderClassesEndToEnd is the classification acceptance test: the
// committed example config drives `pdfwd -classes`, untagged and
// DSCP-marked datagrams from two senders land in the declared classes
// (verified both by the re-marked class bytes at the sink and by class
// name on /metrics), and the measured delay ratio honors the configured
// DDPs (bulk ddp 4 vs interactive ddp 1 → target ratio 4).
func TestForwarderClassesEndToEnd(t *testing.T) {
	recv := listenUDPRetry(t, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	defer recv.Close()

	// Count forwarded datagrams by their (re-marked) class byte.
	var mu sync.Mutex
	sinkCounts := make(map[uint8]int)
	go func() {
		buf := make([]byte, 2048)
		for {
			n, err := recv.Read(buf)
			if err != nil {
				return
			}
			class, _, _, _, err := pdds.DecodeDatagram(buf[:n])
			if err != nil {
				continue
			}
			mu.Lock()
			sinkCounts[class]++
			mu.Unlock()
		}
	}()

	opts, err := parseArgs([]string{
		"-listen", "127.0.0.1:0",
		"-forward", recv.LocalAddr().String(),
		"-rate", "524288", // 512 kbps: 64 KiB/s egress
		"-classes", "testdata/classes.conf",
		"-metrics-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := pdds.StartForwarderWithConfig(opts.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	maddr := fwd.MetricsAddr()
	if maddr == nil {
		t.Fatal("no metrics address bound")
	}

	// Two senders so each traffic stream is a distinct flow: the flow
	// table memoizes 5-tuple→class, so mixing markings on one socket
	// would (correctly) pin the whole flow to its first decision.
	bulkSend, err := net.Dial("udp", fwd.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bulkSend.Close()
	interSend, err := net.Dial("udp", fwd.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer interSend.Close()

	// Saturate the slow egress with interleaved traffic: untagged
	// datagrams must fall to the default class (bulk), and datagrams
	// marked with DS byte 46 (EF) must match interactive's dscp filter.
	const perClass = 80
	payload := make([]byte, 110) // + header = 128 B datagrams
	for i := 0; i < perClass; i++ {
		if _, err := bulkSend.Write(pdds.EncodeDatagram(pdds.ClassUnspecified, uint64(i), payload)); err != nil {
			t.Fatal(err)
		}
		if _, err := interSend.Write(pdds.EncodeDatagram(46, uint64(i), payload)); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, 15*time.Second, func() bool {
		st := fwd.Stats()
		return st.Received >= 2*perClass && st.Forwarded+st.Dropped >= st.Received
	}, "forwarder queue to drain")
	st := fwd.Stats()
	if st.BadClass != 0 || st.BadHeader != 0 {
		t.Fatalf("classified run saw bad-class=%d bad-header=%d", st.BadClass, st.BadHeader)
	}

	// Every forwarded datagram reaches the sink re-marked with its
	// resolved class index: 0 (bulk) or 1 (interactive), nothing else.
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, n := range sinkCounts {
			total += n
		}
		return uint64(total) >= st.Forwarded
	}, "sink to receive forwarded datagrams")
	mu.Lock()
	for class := range sinkCounts {
		if class > 1 {
			t.Errorf("sink saw unexpected class byte %d", class)
		}
	}
	bulkSeen, interSeen := sinkCounts[0], sinkCounts[1]
	mu.Unlock()
	if bulkSeen == 0 || interSeen == 0 {
		t.Fatalf("sink counts bulk=%d interactive=%d, want both > 0", bulkSeen, interSeen)
	}

	resp, err := http.Get("http://" + maddr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Classes []struct {
			Class     int     `json:"class"`
			Name      string  `json:"name"`
			Arrivals  uint64  `json:"arrivals"`
			DelayMean float64 `json:"delay_mean"`
		} `json:"classes"`
		Ratios       []float64 `json:"delay_ratios"`
		TargetRatios []float64 `json:"target_ratios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Classes) != 2 || m.Classes[0].Name != "bulk" || m.Classes[1].Name != "interactive" {
		t.Fatalf("class names: %+v", m.Classes)
	}
	for _, c := range m.Classes {
		if c.Arrivals != perClass {
			t.Errorf("class %s arrivals %d, want %d", c.Name, c.Arrivals, perClass)
		}
	}
	// The DDP spread (4:1) sets the target adjacent delay ratio; require
	// the observed ratio to differentiate clearly in that direction.
	if len(m.TargetRatios) != 1 || m.TargetRatios[0] != 4 {
		t.Fatalf("target ratios %v, want [4] from DDPs 4:1", m.TargetRatios)
	}
	if len(m.Ratios) != 1 || !(m.Ratios[0] > 2) {
		t.Fatalf("delay ratio %v not consistent with DDP target 4", m.Ratios)
	}

	line := summarize(st, fwd.ClassStats(), fwd.DelayRatios(), nil)
	for _, want := range []string{"bad-class=0", "c0[bulk]=", "c1[interactive]="} {
		if !strings.Contains(line, want) {
			t.Fatalf("summary line %q missing %q", line, want)
		}
	}
}

// TestForwarderAdaptEndToEnd starts a forwarder exactly as `pdfwd -adapt`
// would and verifies the adaptation surface: the controller observes
// windows, a manual retune lands in the stats line, and the summary
// renders the retune fields.
func TestForwarderAdaptEndToEnd(t *testing.T) {
	recv := listenUDPRetry(t, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	defer recv.Close()

	opts, err := parseArgs([]string{
		"-listen", "127.0.0.1:0",
		"-forward", recv.LocalAddr().String(),
		"-rate", "1000000",
		"-sdp", "1,4",
		"-adapt", "-adapt-interval", "20ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := pdds.StartForwarderWithConfig(opts.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	if err := fwd.Retune([]float64{1, 8}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return fwd.ControlStats().Applied >= 1
	}, "manual retune to install")

	cs := fwd.ControlStats()
	line := summarize(fwd.Stats(), fwd.ClassStats(), fwd.DelayRatios(), &cs)
	for _, want := range []string{"retunes=", "params=1,8"} {
		if !strings.Contains(line, want) {
			t.Fatalf("summary line %q missing %q", line, want)
		}
	}
}
