package sim

import "math"

// calendarQueue is a Brown-style calendar queue: the classic O(1)-amortized
// event structure of network simulators. Events hash into time buckets of
// width `width`; dequeue sweeps the calendar "day by day". The queue
// resizes and re-estimates its bucket width from the live event spacing as
// the population grows and shrinks.
//
// It implements the same ordering contract as the heap — strict
// (Time, insertion-sequence) order — and is property-tested against it.
type calendarQueue struct {
	buckets [][]*Event
	width   float64
	// lastTime is the virtual clock of the sweep: no event earlier than
	// it remains in the queue.
	lastTime float64
	size     int
}

const (
	calMinBuckets = 8
	calMaxBuckets = 1 << 20
)

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		buckets: make([][]*Event, calMinBuckets),
		width:   1,
	}
}

func (c *calendarQueue) Len() int { return c.size }

// day returns the calendar day an instant belongs to. Bucket assignment
// and the dequeue sweep both derive from this single function, so floating
// rounding at bucket boundaries can never make them disagree.
func (c *calendarQueue) day(t float64) int64 {
	return int64(math.Floor(t / c.width))
}

func (c *calendarQueue) bucketFor(t float64) int {
	nb := int64(len(c.buckets))
	i := c.day(t) % nb
	if i < 0 {
		i += nb
	}
	return int(i)
}

// Push inserts the event, keeping each bucket sorted by (Time, seq).
func (c *calendarQueue) Push(ev *Event) {
	b := c.bucketFor(ev.Time)
	lst := c.buckets[b]
	// Binary search for the insertion point.
	lo, hi := 0, len(lst)
	for lo < hi {
		mid := (lo + hi) / 2
		if less(lst[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	lst = append(lst, nil)
	copy(lst[lo+1:], lst[lo:])
	lst[lo] = ev
	c.buckets[b] = lst
	ev.index = 0 // queued marker for Canceled()
	c.size++
	if ev.Time < c.lastTime {
		// Should not happen (the engine forbids scheduling in the
		// past), but keep the sweep correct regardless.
		c.lastTime = ev.Time
	}
	if c.size > 2*len(c.buckets) && len(c.buckets) < calMaxBuckets {
		c.resize(len(c.buckets) * 2)
	}
}

func less(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

// Peek returns the earliest event without removing it, or nil when empty.
func (c *calendarQueue) Peek() *Event {
	if c.size == 0 {
		return nil
	}
	i, _ := c.findMin()
	return c.buckets[i][0]
}

// Pop removes and returns the earliest event, or nil when empty.
func (c *calendarQueue) Pop() *Event {
	if c.size == 0 {
		return nil
	}
	i, ev := c.findMin()
	// Shift down in place rather than re-slicing the head off: a [1:]
	// re-slice burns one slot of backing-array capacity per pop, forcing
	// a reallocation every len(bucket) pops even at constant population.
	// Buckets average at most two events, so the copy is cheap and the
	// steady state allocates nothing.
	lst := c.buckets[i]
	copy(lst, lst[1:])
	lst[len(lst)-1] = nil
	c.buckets[i] = lst[:len(lst)-1]
	c.size--
	ev.index = -1
	c.lastTime = ev.Time
	if c.size < len(c.buckets)/4 && len(c.buckets) > calMinBuckets {
		c.resize(len(c.buckets) / 2)
	}
	return ev
}

// findMin locates the bucket holding the earliest event. It first sweeps
// one calendar year from the last position (the O(1) fast path), then
// falls back to a full scan. A bucket's head is accepted only when it
// belongs to the day being swept, using the same day() function that
// assigned it to the bucket.
func (c *calendarQueue) findMin() (int, *Event) {
	nb := len(c.buckets)
	startDay := c.day(c.lastTime)
	for k := 0; k < nb; k++ {
		day := startDay + int64(k)
		i := int(day % int64(nb))
		if i < 0 {
			i += nb
		}
		if lst := c.buckets[i]; len(lst) > 0 && c.day(lst[0].Time) == day {
			return i, lst[0]
		}
	}
	// Slow path: direct search.
	bestI := -1
	var best *Event
	for i, lst := range c.buckets {
		if len(lst) == 0 {
			continue
		}
		if best == nil || less(lst[0], best) {
			bestI, best = i, lst[0]
		}
	}
	return bestI, best
}

// Remove deletes the event if present (linear within its bucket).
func (c *calendarQueue) Remove(ev *Event) bool {
	b := c.bucketFor(ev.Time)
	lst := c.buckets[b]
	for i, e := range lst {
		if e == ev {
			c.buckets[b] = append(lst[:i], lst[i+1:]...)
			c.size--
			ev.index = -1
			return true
		}
	}
	return false
}

// resize rebuilds the calendar with nb buckets and a width estimated from
// the current event spread.
func (c *calendarQueue) resize(nb int) {
	events := make([]*Event, 0, c.size)
	for _, lst := range c.buckets {
		events = append(events, lst...)
	}
	// Width heuristic: spread of pending event times divided by the
	// population, clamped to something sane.
	var minT, maxT float64
	for i, ev := range events {
		if i == 0 {
			minT, maxT = ev.Time, ev.Time
			continue
		}
		if ev.Time < minT {
			minT = ev.Time
		}
		if ev.Time > maxT {
			maxT = ev.Time
		}
	}
	width := 1.0
	if len(events) > 1 && maxT > minT {
		width = (maxT - minT) / float64(len(events))
	}
	if width <= 0 || math.IsNaN(width) || math.IsInf(width, 0) {
		width = 1
	}
	c.buckets = make([][]*Event, nb)
	c.width = width
	c.size = 0
	for _, ev := range events {
		c.Push(ev)
	}
}
