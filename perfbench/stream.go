package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/metrics"
	"bayescrowd/internal/skyline"
	"bayescrowd/internal/stream"
)

const (
	// streamWindow is the count window, filled before timing. Tick cost
	// depends mostly on which objects sit in the window, and at 1000
	// objects it is too heavy-tailed to measure steadily: over 24 fresh
	// 1000-object windows the median tick had quartiles 7.6/11.2/17.2 ms
	// and reached 139 ms, one window of a 16-window pool ticked in 3.4 s,
	// and the rebuild check costs a fill per tick.
	streamWindow = 200
	// streamPool windows, each with its arrivals, are measured in every
	// run, and they do not depend on the run seed: they come from the
	// fixed generator seeds -1 to -80. Even at 200 objects a few windows
	// tick a hundred times slower than the median, and which objects
	// arrive into those few windows decides the tail and the throughput.
	// With seeded fills, p99 and throughput spread 1.9 and 0.57
	// (IQR/median over five seeds); with fixed fills and seeded arrivals,
	// throughput still spread 0.34, and the same two seeds were fastest
	// in two separate sets of ten.
	streamPool = 80
	// streamTicks is one window's schedule after its fill: arrivals, one
	// per tick.
	streamTicks = 5
)

// streamBench drives the machine-only window engine. The timed loop
// walks the pool in whole cycles; each visit starts a fresh engine on
// the window (its fill is one set-up) and times the window's arrivals
// tick by tick.
type streamBench struct {
	cfg  config
	pool []*streamInput
	op   int64 // span op id
}

// streamInput is one pool window: its fill, its arrivals, and what the
// untimed check pass recorded for every tick.
type streamInput struct {
	attrs []dataset.Attribute
	fill  [][]dataset.Cell
	ticks [][][]dataset.Cell
	want  [][]int // the rebuild engine's answers after tick t (index t-1)
	sky   [][]int // the complete-data skyline of the window after tick t
}

func (b *streamBench) engine(attrs []dataset.Attribute, rebuild bool) (*stream.Engine, error) {
	return stream.New(stream.Config{
		Attrs:   attrs,
		Window:  stream.Window{Count: streamWindow},
		TopK:    10,
		Workers: b.cfg.workers,
		Rebuild: rebuild,
	})
}

// input builds pool window k and runs its untimed check pass:
// incremental ≡ rebuild on every tick of the schedule, booked into p.
// Stream ids are arrival indices, so row i of truth is the ground truth
// of stream id i.
func (b *streamBench) input(k int, p *phase) (*streamInput, error) {
	rng := rand.New(rand.NewSource(-1 - int64(k)))
	truth := dataset.GenNBA(rng, streamWindow+streamTicks)
	d := truth.InjectMissing(rng, missingRate)
	fill, arrivals := d.Objects[:streamWindow], d.Objects[streamWindow:]

	in := &streamInput{attrs: d.Attrs}
	for _, o := range fill {
		in.fill = append(in.fill, o.Cells)
	}
	for _, o := range arrivals {
		in.ticks = append(in.ticks, [][]dataset.Cell{o.Cells})
	}
	inc, err := b.engine(in.attrs, false)
	if err != nil {
		return nil, err
	}
	reb, err := b.engine(in.attrs, true)
	if err != nil {
		return nil, err
	}
	p.check(sameTick(0, inc.Tick(0, in.fill), reb.Tick(0, in.fill)))
	for t, batch := range in.ticks {
		ri, rr := inc.Tick(int64(t+1), batch), reb.Tick(int64(t+1), batch)
		p.check(sameTick(t+1, ri, rr))
		in.want = append(in.want, rr.Answers)
		live := reb.Snapshot()
		w := dataset.New(truth.Attrs)
		for _, r := range live {
			w.MustAppend(truth.Objects[r.ID])
		}
		var sky []int
		for _, i := range skyline.BNL(w) {
			sky = append(sky, live[i].ID)
		}
		in.sky = append(in.sky, sky)
	}
	return in, nil
}

func (b *streamBench) prepare(cfg config) ([]float64, *phase, error) {
	b.cfg = cfg
	pre := newPhase()
	for k := 0; k < streamPool; k++ {
		in, err := b.input(k, pre)
		if err != nil {
			return nil, nil, err
		}
		b.pool = append(b.pool, in)
	}
	return nil, pre, nil
}

// sameTick compares the incremental and rebuild engines' output of one
// tick: the same answer set, ranking and evictions.
func sameTick(t int, inc, reb stream.TickResult) error {
	switch {
	case !reflect.DeepEqual(inc.Answers, reb.Answers):
		return fmt.Errorf("tick %d: incremental answers %v, rebuild %v", t, inc.Answers, reb.Answers)
	case !reflect.DeepEqual(inc.TopK, reb.TopK):
		return fmt.Errorf("tick %d: rankings differ", t)
	case !reflect.DeepEqual(inc.Evicted, reb.Evicted):
		return fmt.Errorf("tick %d: evictions differ", t)
	}
	return nil
}

// measure walks the pool in whole cycles until d has passed, so every
// window weighs the same in the run's figures.
func (b *streamBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	p := newPhase()
	for start := time.Now(); time.Since(start) < d; {
		for _, in := range b.pool {
			if err := b.replay(in, tr, p); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

func (b *streamBench) replay(in *streamInput, tr *tracer, p *phase) error {
	f0 := time.Now()
	e, err := b.engine(in.attrs, false)
	if err != nil {
		return err
	}
	e.Tick(0, in.fill)
	f1 := time.Now()
	b.op++
	tr.add("stream.fill", b.op, -1, f0, f1)
	p.setup = append(p.setup, f1.Sub(f0).Seconds())

	// The traced run mirrors the engine's table maintenance in a shadow
	// DynCTable, timing the ctable layer's share of a tick.
	var shadow *ctable.DynCTable
	if tr != nil {
		shadow = ctable.NewDynCTable(in.attrs, streamWindow)
		for _, c := range in.fill {
			shadow.Insert(c)
		}
		shadow.DrainDirty()
	}
	prev := e.CacheStats()
	for t, batch := range in.ticks {
		b.op++
		t0 := time.Now()
		res := e.Tick(int64(t+1), batch)
		t1 := time.Now()
		tr.add("stream.tick", b.op, -1, t0, t1)
		lat := t1.Sub(t0)
		p.ops = append(p.ops, ms(lat))
		p.busy += lat
		p.units += float64(len(batch))
		p.f1 = append(p.f1, metrics.F1(res.Answers, in.sky[t]))
		var err error
		if !reflect.DeepEqual(res.Answers, in.want[t]) {
			err = fmt.Errorf("tick %d: answers %v, rebuild gave %v", t+1, res.Answers, in.want[t])
		}
		p.check(err)

		st := e.CacheStats()
		p.sums["recomputed"] += float64(res.Recomputed)
		p.sums["inval"] += float64(res.InvalidatedEntries)
		p.sums["hits"] += float64(st.Hits - prev.Hits)
		p.sums["lookups"] += float64(st.Hits + st.Misses - prev.Hits - prev.Misses)
		prev = st

		if shadow != nil {
			s0 := time.Now()
			for _, id := range res.Evicted {
				shadow.Evict(id)
			}
			for _, c := range batch {
				shadow.Insert(c)
			}
			for _, id := range shadow.DrainDirty() {
				shadow.Cond(id)
			}
			s1 := time.Now()
			tr.add("ctable.dyn.shadow", b.op, -1, s0, s1)
			p.sums["table_ms"] += ms(s1.Sub(s0))
		}
	}
	return nil
}

func (b *streamBench) layers(p *phase, _ *tracer) map[string]float64 {
	s := p.sums
	n := float64(len(p.ops))
	total := ms(p.busy)
	return map[string]float64{
		"stream.recomputed_per_tick":          ratio(s["recomputed"], n),
		"stream.invalidated_entries_per_tick": ratio(s["inval"], n),
		"stream.cache_hit_ratio":              ratio(s["hits"], s["lookups"]),
		"stream.cache_lookups":                ratio(s["lookups"], n),
		"stream.fill_ms":                      1000 * median(p.setup),
		"stream.table_ms":                     ratio(s["table_ms"], n),
		"share.stream.table":                  ratio(s["table_ms"], total),
		"share.stream.recompute":              ratio(total-s["table_ms"], total),
	}
}

// rewind is a no-op: every measure walks the pool from its start.
func (b *streamBench) rewind() {}

func (b *streamBench) close() {}
