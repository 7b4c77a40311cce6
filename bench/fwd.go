package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pdds"
)

// fwdConfig is what a live workload asks of the forwarder under test. The
// subprocess form turns it into pdfwd flags, the in-process form into a
// pdds.ForwarderConfig; nothing else reaches the program under test.
type fwdConfig struct {
	shards   int
	rateBps  float64
	classes  string // path of a traffic-class config; "" = trusted tags
	distrust bool
	metrics  bool // serve /metrics (subprocess only; in process it is read directly)
	forward  netip.AddrPort
}

// fwdCounters are the forwarder's conservation counters.
type fwdCounters struct {
	Received, Forwarded, Dropped, BadHeader, BadClass, Queued uint64
}

func (c fwdCounters) unaccounted() int64 {
	return int64(c.Received) - int64(c.Forwarded) - int64(c.Dropped) - int64(c.BadHeader) - int64(c.BadClass) - int64(c.Queued)
}

// classDelay is one class's scheduler wait (ingress stamp → dequeue), in
// seconds, as the forwarder's telemetry reports it.
type classDelay struct {
	Arrivals       uint64 // datagrams the forwarder read, dropped ones included
	Departures     uint64
	Mean, P50, P99 float64
}

// fwdUsage is the forwarder process's resource use at exit.
type fwdUsage struct {
	userS, sysS float64
	maxRSSMB    float64
	volCtxsw    int64
}

// settleTime separates the harness seeing its last datagram from the
// reading of the forwarder's counters.
const settleTime = 20 * time.Millisecond

// forwarder is the system under test as the harness sees it.
type forwarder interface {
	addr() netip.AddrPort
	// cpu returns the forwarder's cumulative user and system CPU seconds;
	// ok is false when they cannot be told apart from the harness's own.
	cpu() (user, sys float64, ok bool)
	classDelays() ([]classDelay, error)
	// stop reads the counters — after the harness has seen its last
	// datagram and before the forwarder is told to stop — then shuts it
	// down and waits for it.
	stop() (fwdCounters, fwdUsage, error)
}

// --- subprocess -------------------------------------------------------

// moduleRoot walks up from the working directory to the pdds go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module pdds\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the pdds module (no go.mod found)")
		}
		dir = parent
	}
}

// buildPdfwd compiles cmd/pdfwd into the checkout's build directory. An
// up-to-date binary makes this a no-op for the go tool.
func buildPdfwd(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "pdfwd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pdfwd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pdfwd: %v\n%s", err, out)
	}
	return bin, nil
}

var (
	listenRE   = regexp.MustCompile(`forwarding (\S+) -> `)
	metricsRE  = regexp.MustCompile(`metrics on http://(\S+)/metrics`)
	shutdownRE = regexp.MustCompile(`shutting down: received=(\d+) forwarded=(\d+) dropped=(\d+) bad-header=(\d+) bad-class=(\d+) queued=(\d+)`)
)

// procForwarder is a real pdfwd process.
type procForwarder struct {
	cmd      *exec.Cmd
	ingress  netip.AddrPort
	metrics  string        // host:port of /metrics, "" when not served
	shutdown chan string   // the "shutting down" line
	done     chan struct{} // stderr fully read
	stderr   []string      // everything pdfwd logged, for error reports
}

// startPdfwd starts pdfwd and waits until it has announced its addresses.
// pinned starts it confined to the forwarder's share of the CPUs.
func startPdfwd(bin string, cfg fwdConfig, pinned bool) (*procForwarder, error) {
	args := []string{
		"-listen", "127.0.0.1:0", "-forward", cfg.forward.String(),
		"-sched", "wtp", "-shards", strconv.Itoa(cfg.shards),
		"-rate", strconv.FormatFloat(cfg.rateBps, 'g', -1, 64),
		"-stats", "1h", // the periodic status line is not part of the measurement
	}
	if cfg.classes != "" {
		// The class config's DDPs (8,4,2,1) give the SDPs 1,2,4,8.
		args = append(args, "-classes", cfg.classes, "-distrust-class", strconv.FormatBool(cfg.distrust))
	} else {
		args = append(args, "-sdp", "1,2,4,8")
	}
	if cfg.metrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	p := &procForwarder{
		cmd:      exec.Command(bin, args...),
		shutdown: make(chan string, 1),
		done:     make(chan struct{}),
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if pinned {
		fwdCPUs, genCPUs, _ := cpuSplit()
		err = startPinned(p.cmd, fwdCPUs, genCPUs)
	} else {
		err = p.cmd.Start()
	}
	if err != nil {
		return nil, err
	}
	type ready struct{ ingress, metrics string }
	readyCh := make(chan ready, 1)
	go func() {
		defer close(p.done)
		var r ready
		announced := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.stderr = append(p.stderr, line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				r.ingress = m[1]
			}
			if m := metricsRE.FindStringSubmatch(line); m != nil {
				r.metrics = m[1]
			}
			if !announced && r.ingress != "" && (r.metrics != "" || !cfg.metrics) {
				announced = true
				readyCh <- r
			}
			if shutdownRE.MatchString(line) {
				p.shutdown <- line
			}
		}
	}()
	select {
	case r := <-readyCh:
		p.metrics = r.metrics
		if p.ingress, err = netip.ParseAddrPort(r.ingress); err != nil {
			p.kill()
			return nil, fmt.Errorf("pdfwd announced ingress %q: %w", r.ingress, err)
		}
		return p, nil
	case <-p.done:
		p.kill()
		return nil, fmt.Errorf("pdfwd exited during start-up:\n%s", strings.Join(p.stderr, "\n"))
	case <-time.After(10 * time.Second):
		p.kill()
		return nil, errors.New("pdfwd did not announce its ingress address within 10s")
	}
}

func (p *procForwarder) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
	_ = p.cmd.Wait()
}

func (p *procForwarder) addr() netip.AddrPort { return p.ingress }

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTick = 100

func (p *procForwarder) cpu() (user, sys float64, ok bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, 0, false
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis: utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(data), ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, 0, false
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return ut / clockTick, st / clockTick, true
}

func (p *procForwarder) classDelays() ([]classDelay, error) {
	if p.metrics == "" {
		return nil, errors.New("pdfwd was started without -metrics-addr")
	}
	resp, err := http.Get("http://" + p.metrics + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var m struct {
		Classes []struct {
			Arrivals   uint64  `json:"arrivals"`
			Departures uint64  `json:"departures"`
			Mean       float64 `json:"delay_mean"`
			P50        float64 `json:"delay_p50"`
			P99        float64 `json:"delay_p99"`
		} `json:"classes"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	out := make([]classDelay, len(m.Classes))
	for i, c := range m.Classes {
		out[i] = classDelay{Arrivals: c.Arrivals, Departures: c.Departures, Mean: c.Mean, P50: c.P50, P99: c.P99}
	}
	return out, nil
}

func (p *procForwarder) stop() (fwdCounters, fwdUsage, error) {
	// pdfwd logs its counters when the signal arrives, before it closes. It
	// counts a datagram just after writing it, so the sink can be a few
	// microseconds ahead of the counters: give them time to settle.
	time.Sleep(settleTime)
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		p.kill()
		return fwdCounters{}, fwdUsage{}, err
	}
	var line string
	select {
	case line = <-p.shutdown:
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.kill()
		return fwdCounters{}, fwdUsage{}, errors.New("pdfwd did not shut down within 10s of SIGINT")
	}
	<-p.done
	werr := p.cmd.Wait()
	m := shutdownRE.FindStringSubmatch(line)
	if m == nil {
		return fwdCounters{}, fwdUsage{}, fmt.Errorf("pdfwd exited (%v) without a shutdown line:\n%s", werr, strings.Join(p.stderr, "\n"))
	}
	if werr != nil {
		return fwdCounters{}, fwdUsage{}, fmt.Errorf("pdfwd: %w", werr)
	}
	var n [6]uint64
	for i := range n {
		n[i], _ = strconv.ParseUint(m[i+1], 10, 64) // the pattern admits digits only
	}
	c := fwdCounters{Received: n[0], Forwarded: n[1], Dropped: n[2], BadHeader: n[3], BadClass: n[4], Queued: n[5]}
	var u fwdUsage
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u = fwdUsage{
			userS:    time.Duration(ru.Utime.Nano()).Seconds(),
			sysS:     time.Duration(ru.Stime.Nano()).Seconds(),
			maxRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
			volCtxsw: ru.Nvcsw,
		}
	}
	return c, u, nil
}

// --- in process (traced runs) ------------------------------------------

// inprocForwarder runs the forwarder inside the benchmark so its shard and
// class statistics are readable while it runs.
type inprocForwarder struct {
	fwd *pdds.Forwarder
}

func startInproc(cfg fwdConfig) (*inprocForwarder, error) {
	pc := pdds.ForwarderConfig{
		Listen:         "127.0.0.1:0",
		Forward:        cfg.forward.String(),
		Scheduler:      pdds.WTP,
		SDP:            []float64{1, 2, 4, 8},
		RateBps:        cfg.rateBps,
		Shards:         cfg.shards,
		DrainTimeout:   time.Second,
		DistrustHeader: cfg.distrust,
		FlowTTL:        2 * time.Minute,
	}
	if cfg.classes != "" {
		classes, err := pdds.LoadClassConfig(cfg.classes)
		if err != nil {
			return nil, err
		}
		pc.Classes, pc.SDP = classes, nil
	}
	fwd, err := pdds.StartForwarderWithConfig(pc)
	if err != nil {
		return nil, err
	}
	return &inprocForwarder{fwd: fwd}, nil
}

func (f *inprocForwarder) addr() netip.AddrPort {
	ap, _ := netip.ParseAddrPort(f.fwd.Addr().String()) // a bound UDP address always parses
	return ap
}

func (f *inprocForwarder) cpu() (float64, float64, bool) { return 0, 0, false }

func (f *inprocForwarder) classDelays() ([]classDelay, error) {
	cs := f.fwd.ClassStats()
	out := make([]classDelay, len(cs))
	for i, c := range cs {
		out[i] = classDelay{Arrivals: c.Arrivals, Departures: c.Departures, Mean: c.DelayMean, P50: c.DelayP50, P99: c.DelayP99}
	}
	return out, nil
}

func (f *inprocForwarder) stop() (fwdCounters, fwdUsage, error) {
	time.Sleep(settleTime)
	c := fwdCounters(f.fwd.Stats())
	return c, fwdUsage{}, f.fwd.Close()
}
