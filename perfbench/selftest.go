package main

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// selfCase is one injected-delay check: a delay added only by the
// benchmark's own wrapper must raise the named layer metric and op
// latency, and leave every other layer metric within tolerance.
type selfCase struct {
	workload string
	delay    time.Duration
	named    string
	// moved are metrics the delay legitimately moves besides the named
	// one: shares (their denominator grows), the traced/untraced ratio,
	// and counts that scale with query latency or overlap.
	moved []string
	// path are the layer timings on an op's critical path; the one that
	// rose most is the layer the self-test names.
	path []string
}

var selfCases = []selfCase{
	{
		workload: "batch-nba", delay: 20 * time.Millisecond, named: "crowd.post_ms",
		moved: []string{"share.", "trace.overhead_ratio"},
		path: []string{"bayesnet.learn_ms", "preprocess.posterior_ms", "ctable.build_ms", "select.ms",
			"prob.ms", "crowdphase.other_ms", "crowd.post_ms"},
	},
	{
		workload: "daemon-shared", delay: time.Millisecond, named: "service.task_open_to_answer_ms",
		moved: []string{"share.", "trace.overhead_ratio", "service.polls", "service.dedup_ratio",
			"service.tasks_opened", "prob.cache", "parallel."},
		path: []string{"select.ms", "prob.ms", "service.submit_ms", "service.poll_ms",
			"service.task_open_to_answer_ms", "service.callback_p50_ms"},
	},
}

// selfTolerance bounds how far an unrelated layer metric may move: a
// share of its own value, or, for a timing, a share of the op latency the
// delay added — a layer that absorbed the delay would move by about as
// much as the op did.
const (
	selfTolerance = 0.30
	selfBlame     = 0.10
)

// selftest runs every case twice on the same seed, without and with the
// injected delay, and fails unless the delay shows up in the named layer
// and the op latency only.
func selftest(cfg config) error {
	var failures []string
	for _, c := range selfCases {
		w, _ := findWorkload(c.workload)
		base, err := selfRun(w, cfg, 0)
		if err != nil {
			return err
		}
		slow, err := selfRun(w, cfg, c.delay)
		if err != nil {
			return err
		}
		fmt.Printf("== selftest %s: %v injected by the benchmark's own %s\n", c.workload, c.delay,
			map[bool]string{true: "crowd wrapper (per post)", false: "task sink (per task)"}[strings.HasPrefix(c.workload, "batch")])
		fmt.Printf("  %-38s %12s %12s  %s\n", "metric", "no delay", "delay", "verdict")
		blamed, rise := "", math.Inf(-1)
		for _, m := range append([]metricDef{{"op_p50_ms", "ms", "lower"}}, perLayer...) {
			a, b := base[m.name], slow[m.name]
			if a == 0 && b == 0 {
				continue // layer not exercised by this workload
			}
			if hasAnyPrefix(m.name, c.path) && b-a > rise {
				blamed, rise = m.name, b-a
			}
			verdict := "ok"
			switch {
			case m.name == c.named || m.name == "op_p50_ms":
				// The delay is paid at least once per op.
				if b-a < 0.5*ms(c.delay) {
					verdict = "FAIL: did not rise"
				} else {
					verdict = "rose, as injected"
				}
			case hasAnyPrefix(m.name, c.moved):
				verdict = "moves with latency (not checked)"
			case math.Abs(b-a) > math.Max(selfTolerance*math.Abs(a), floorFor(m, slow["op_p50_ms"]-base["op_p50_ms"])):
				verdict = "FAIL: moved"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				failures = append(failures, c.workload+" "+m.name+": "+verdict)
			}
			fmt.Printf("  %-38s %12.4f %12.4f  %s\n", m.name, a, b, verdict)
		}
		fmt.Printf("  layer that rose most: %s (+%.3f ms)\n", blamed, rise)
		if blamed != c.named {
			failures = append(failures, fmt.Sprintf("%s: the delay was named %s, not %s", c.workload, blamed, c.named))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d metric(s) misattributed: %s", len(failures), strings.Join(failures, "; "))
	}
	fmt.Println("selftest: pass — each injected delay was caught and named")
	return nil
}

func hasAnyPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// floorFor is the absolute change always tolerated: for a timing, a
// tenth of the op latency the delay added; for ratios and counts, 0.02.
func floorFor(m metricDef, opRise float64) float64 {
	if m.unit == "ms" {
		return selfBlame * opRise
	}
	return 0.02
}

// selfRun prepares the workload afresh and makes one traced measurement,
// returning op_p50_ms with the per-layer metrics.
func selfRun(w workload, cfg config, delay time.Duration) (map[string]float64, error) {
	cfg.delay = delay
	b := w.new()
	defer b.close()
	if _, _, err := b.prepare(cfg); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	tr := newTracer()
	p, err := b.measure(cfg.seconds, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: measure: %w", w.name, err)
	}
	if p.failed > 0 {
		return nil, fmt.Errorf("%s: %d output checks failed", w.name, p.failed)
	}
	vals := b.layers(p, tr)
	vals["op_p50_ms"] = median(p.ops)
	return vals, nil
}
