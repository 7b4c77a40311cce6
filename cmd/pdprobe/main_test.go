package main

import (
	"io"
	"net"
	"strings"
	"testing"

	"pdds"
)

// reservePort binds an ephemeral UDP port and releases it, returning the
// address so a probe receiver can claim it (run retries the bind briefly).
func reservePort(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := conn.LocalAddr().String()
	conn.Close()
	return addr
}

// TestRunSmoke probes a real in-process forwarder over loopback UDP and
// checks the report shape.
func TestRunSmoke(t *testing.T) {
	recvAddr := reservePort(t)
	fwd, err := pdds.StartForwarderWithConfig(pdds.ForwarderConfig{
		Listen:  "127.0.0.1:0",
		Forward: recvAddr,
		RateBps: 10e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	var out strings.Builder
	err = run([]string{
		"-send", fwd.Addr().String(),
		"-recv", recvAddr,
		"-classes", "2", "-count", "20", "-size", "64",
		"-timeout", "5s",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"sent 40 datagrams (20 per class)",
		"class  received",
		"p50",
		"p95",
		"mean-delay ratio d1/d2 =",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	st := fwd.Stats()
	if st.Received == 0 {
		t.Error("forwarder received nothing")
	}
}

// TestRunNothingReceived probes a forwarder whose egress points at a
// blackhole port, not the probe's receiver: nothing comes back, and run
// must report that as an error. (Sending straight to a dead ingress would
// instead fail with ICMP connection-refused on loopback.)
func TestRunNothingReceived(t *testing.T) {
	blackhole := reservePort(t)
	recv := reservePort(t)
	fwd, err := pdds.StartForwarderWithConfig(pdds.ForwarderConfig{
		Listen:  "127.0.0.1:0",
		Forward: blackhole,
		RateBps: 10e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	err = run([]string{
		"-send", fwd.Addr().String(), "-recv", recv,
		"-classes", "1", "-count", "2",
		"-timeout", "200ms",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "nothing received") {
		t.Errorf("want 'nothing received' error, got %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-classes", "0"},
		{"-classes", "65"},
		{"-size", "10"},
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestRunBadRecvAddr fails before sending anything when the receive
// address cannot be bound.
func TestRunBadRecvAddr(t *testing.T) {
	err := run([]string{"-recv", "127.0.0.1:notaport"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "bind receiver") {
		t.Errorf("want a bind receiver error, got %v", err)
	}
}
