// Command pdprobe measures a pdfwd forwarder: it binds a local receiver,
// sends classed datagrams at the forwarder's ingress, paced to -rate bits
// per second (unpaced at 0), and reports how many were lost and per-class
// one-way delay statistics of the rest, computing the observed
// differentiation ratios. An unpaced burst overflows the kernel's receive
// buffers on the way, and the table then describes only the survivors.
//
// Typical session (two terminals):
//
//	pdfwd   -listen 127.0.0.1:7000 -forward 127.0.0.1:7001 -rate 512000
//	pdprobe -send 127.0.0.1:7000 -recv 127.0.0.1:7001 -classes 4 -count 100 -rate 480000
//
// pdprobe and pdfwd share the same clock only when run on the same host;
// across hosts the delays include clock offset (ratios remain meaningful
// if the offset is small relative to queueing).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"text/tabwriter"
	"time"

	"pdds/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdprobe: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// listenUDPRetry binds addr, retrying briefly: a just-released port (e.g. a
// probe restarted against the same -recv address) can stay unavailable for
// a moment on some platforms.
func listenUDPRetry(addr string) (*net.UDPConn, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.ListenUDP("udp", laddr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// run executes the CLI against args, writing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdprobe", flag.ContinueOnError)
	var (
		sendAddr = fs.String("send", "127.0.0.1:7000", "forwarder ingress address")
		recvAddr = fs.String("recv", "127.0.0.1:7001", "local address to receive forwarded datagrams on")
		classes  = fs.Int("classes", 4, "number of classes to probe")
		count    = fs.Int("count", 100, "datagrams per class")
		size     = fs.Int("size", 128, "datagram size including 18-byte header")
		rate     = fs.Float64("rate", 0, "send rate, bits per second (0: as fast as the socket takes them)")
		timeout  = fs.Duration("timeout", 30*time.Second, "receive deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *classes < 1 || *classes > 64 {
		return fmt.Errorf("-classes %d out of range", *classes)
	}
	if *size < 18 {
		return fmt.Errorf("-size must be >= 18 (header length)")
	}
	if !(*rate >= 0) {
		return fmt.Errorf("-rate %g must be >= 0", *rate)
	}

	recv, err := listenUDPRetry(*recvAddr)
	if err != nil {
		return fmt.Errorf("bind receiver: %w", err)
	}
	sink := loadgen.NewSink(recv, *classes, *size)
	defer sink.Close()

	// Interleave the classes so all of them compete for the egress.
	total := uint64(*classes * *count)
	if _, err := (loadgen.Sender{Classes: *classes, Size: *size, Count: total, Bps: *rate}).Send(*sendAddr); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sent %d datagrams (%d per class) to %s\n", total, *count, *sendAddr)

	st := sink.Drain(total, *timeout)
	fmt.Fprintf(stdout, "lost %d of %d datagrams (receive timeout %v)\n", total-min(st.Count, total), total, *timeout)
	if st.Count == 0 {
		return fmt.Errorf("nothing received — is pdfwd running and forwarding to -recv?")
	}

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "class\treceived\tmean\tp50\tp95")
	means := make([]float64, *classes)
	for c := 0; c < *classes; c++ {
		s := &st.Delay[c]
		if s.Len() == 0 {
			fmt.Fprintf(w, "%d\t0\t-\t-\t-\n", c+1)
			continue
		}
		means[c] = s.Mean()
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%s\n", c+1, s.Len(),
			fmtDur(s.Mean()), fmtDur(s.Quantile(0.5)), fmtDur(s.Quantile(0.95)))
	}
	w.Flush()
	for c := 0; c+1 < *classes; c++ {
		if means[c+1] > 0 {
			fmt.Fprintf(stdout, "mean-delay ratio d%d/d%d = %.2f\n", c+1, c+2, means[c]/means[c+1])
		}
	}
	return nil
}

func fmtDur(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(10 * time.Microsecond).String()
}
