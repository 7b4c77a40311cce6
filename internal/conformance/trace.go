package conformance

import (
	"bufio"
	"io"
	"strconv"

	"pdds/internal/core"
)

// traceRecorder writes the compact, line-oriented, bit-stable record of
// every link event in a run:
//
//	# pdds conformance trace v1 sched=WTP scenario=golden seed=7 classes=4
//	A 57.234378123098701 1099511627777 0 40
//	D 68.434378123098699 1099511627777 0 11.199999999999999
//
// `A <time> <id> <class> <size>` records a packet arriving at the link;
// `D <time> <id> <class> <wait>` records its transmission completing after
// queueing for <wait> time units. Floats are formatted with
// strconv.FormatFloat(v, 'g', 17, 64), which round-trips float64 exactly,
// so two runs produce identical traces iff every scheduling decision and
// every float computation matched bit-for-bit. Golden copies of these
// traces live under testdata/golden and are regenerated with the test
// flag -update. It writes A lines as a Checker Observer and D lines as a
// link departure observer.
type traceRecorder struct {
	w   *bufio.Writer
	err error
}

func newTraceRecorder(w io.Writer) *traceRecorder {
	return &traceRecorder{w: bufio.NewWriter(w)}
}

func g17(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

func (t *traceRecorder) line(parts ...string) {
	if t.err != nil {
		return
	}
	for i, s := range parts {
		if i > 0 {
			if t.err = t.w.WriteByte(' '); t.err != nil {
				return
			}
		}
		if _, t.err = t.w.WriteString(s); t.err != nil {
			return
		}
	}
	t.err = t.w.WriteByte('\n')
}

func (t *traceRecorder) header(sched string, sc Scenario) error {
	t.line("# pdds conformance trace v1 sched="+sched,
		"scenario="+sc.Name,
		"seed="+strconv.FormatUint(sc.Seed, 10),
		"classes="+strconv.Itoa(len(sc.SDP)))
	return t.err
}

// Name implements Observer.
func (t *traceRecorder) Name() string { return "trace" }

// OnEnqueue implements Observer: it writes the packet's A line.
func (t *traceRecorder) OnEnqueue(now float64, p *core.Packet, _ *State) {
	t.line("A", g17(now),
		strconv.FormatUint(p.ID, 10),
		strconv.Itoa(p.Class),
		strconv.FormatInt(p.Size, 10))
}

// OnDequeue, Done and Violations implement Observer; a trace checks
// nothing.
func (t *traceRecorder) OnDequeue(float64, *core.Packet, *State) {}
func (t *traceRecorder) Done(*State)                             {}
func (t *traceRecorder) Violations() []Violation                 { return nil }

func (t *traceRecorder) depart(p *core.Packet) {
	t.line("D", g17(p.Departure),
		strconv.FormatUint(p.ID, 10),
		strconv.Itoa(p.Class),
		g17(p.Wait()))
}

func (t *traceRecorder) flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}
