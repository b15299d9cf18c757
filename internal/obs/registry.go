package obs

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the expvar-style home of the run's scheduling-dependent
// numbers: monotonic counters and duration histograms, looked up by
// name and created on first use. It is safe for concurrent use, and a
// nil *Registry (and the nil *Counter / *Histogram it hands out) is a
// safe no-op, so instrumented code resolves and updates metrics
// unconditionally.
//
// Counters and histograms live here precisely because they are NOT
// deterministic: approx-fallback tallies, pool fan-out counts and wall
// durations all depend on goroutine scheduling, so they are kept out of
// the trace (see Event) and reported separately.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	hists    map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named monotonic counter, creating it on first
// use. A nil registry returns a nil counter, whose methods are no-ops —
// resolve once, update unconditionally.
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.counters[name]
	if !ok {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Histogram returns the named duration histogram, creating it on first
// use. A nil registry returns a nil histogram, whose methods are no-ops.
func (g *Registry) Histogram(name string) *Histogram {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.hists[name]
	if !ok {
		h = &Histogram{}
		g.hists[name] = h
	}
	return h
}

// WriteJSON writes the registry as one JSON object with "counters" and
// "histograms" members, names sorted, so the output is stable for a
// given set of values. A nil registry writes an empty object.
func (g *Registry) WriteJSON(w io.Writer) error {
	if g == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	g.mu.Lock()
	counters := make(map[string]*Counter, len(g.counters))
	cnames := make([]string, 0, len(g.counters))
	for name, c := range g.counters {
		counters[name] = c
		cnames = append(cnames, name)
	}
	hists := make(map[string]*Histogram, len(g.hists))
	hnames := make([]string, 0, len(g.hists))
	for name, h := range g.hists {
		hists[name] = h
		hnames = append(hnames, name)
	}
	g.mu.Unlock()
	sort.Strings(cnames)
	sort.Strings(hnames)

	b := make([]byte, 0, 512)
	b = append(b, `{"counters":{`...)
	for i, name := range cnames {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, name)
		b = append(b, ':')
		b = strconv.AppendInt(b, counters[name].Value(), 10)
	}
	b = append(b, `},"histograms":{`...)
	for i, name := range hnames {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, name)
		b = append(b, ':')
		b = hists[name].appendJSON(b)
	}
	b = append(b, "}}\n"...)
	_, err := w.Write(b)
	return err
}

// Counter is a monotonic event tally. The nil *Counter is a safe no-op
// receiver; non-nil counters are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. A nil counter does nothing.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current tally; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBounds are the histogram's fixed upper bucket bounds — one per
// decade from 1µs to 10s, wide enough for a per-round phase timing at
// any scale the benchmarks run. Observations above the last bound land
// in the overflow bucket.
var histBounds = [...]time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// histLabels name the buckets in WriteJSON output, in bound order plus
// the overflow bucket.
var histLabels = [...]string{
	"<=1us", "<=10us", "<=100us", "<=1ms", "<=10ms", "<=100ms", "<=1s", "<=10s", ">10s",
}

// Histogram is a fixed-bucket duration histogram (decade buckets from
// 1µs to 10s plus overflow). The nil *Histogram is a safe no-op
// receiver; non-nil histograms are safe for concurrent use.
type Histogram struct {
	buckets [len(histBounds) + 1]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one duration. A nil histogram does nothing.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(histBounds) && d > histBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations; 0 on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration; 0 on a nil histogram.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// appendJSON appends the histogram as a JSON object with count, the sum
// in nanoseconds, and the per-bucket tallies in bound order.
func (h *Histogram) appendJSON(b []byte) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, h.count.Load(), 10)
	b = append(b, `,"sum_ns":`...)
	b = strconv.AppendInt(b, h.sum.Load(), 10)
	b = append(b, `,"buckets":{`...)
	for i := range h.buckets {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, histLabels[i])
		b = append(b, ':')
		b = strconv.AppendInt(b, h.buckets[i].Load(), 10)
	}
	b = append(b, "}}"...)
	return b
}
