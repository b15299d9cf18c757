package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
)

// stripVolatile zeroes the Result fields that legitimately differ between
// two otherwise identical runs: wall-clock durations and the c-table
// pointer.
func stripVolatile(r *Result) *Result {
	c := *r
	c.SelectTime, c.ProbTime, c.BackoffTime = 0, 0, 0
	c.CTable = nil
	return &c
}

func robustEnv(seed int64, n int) (truth, incomplete *dataset.Dataset) {
	rng := rand.New(rand.NewSource(seed))
	truth = dataset.GenIndependent(rng, n, 4, 6)
	return truth, truth.InjectMissing(rng, 0.15)
}

func robustOpts(seed int64) Options {
	return Options{
		Alpha: 0.3, Budget: 40, Latency: 5, Strategy: FBS,
		MarginalsOnly: true,
		Rng:           rand.New(rand.NewSource(seed)),
	}
}

// TestFaultFreeEquivalence is the acceptance gate for the fallible
// contract: with fault injection disabled, the crowd phase must be
// bit-identical to a bare platform run — same answers, same
// probabilities, same ledger — even with the robustness options armed,
// and every robustness counter must stay zero.
func TestFaultFreeEquivalence(t *testing.T) {
	truth, incomplete := robustEnv(301, 90)

	run := func(wrap bool) *Result {
		var platform crowd.Platform = crowd.NewSimulated(truth, 1.0, nil)
		if wrap {
			platform = crowd.NewUnreliable(platform, 0, 0, 0, nil)
		}
		opt := robustOpts(302)
		opt.MaxRetries = 3
		opt.RetryBackoff = time.Millisecond
		opt.ReaskConflicts = 3
		res, err := Run(incomplete, platform, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	bare, wrapped := stripVolatile(run(false)), stripVolatile(run(true))
	if !reflect.DeepEqual(bare, wrapped) {
		t.Fatalf("zero-fault wrapper changed the run:\nbare:    %+v\nwrapped: %+v", bare, wrapped)
	}
	if wrapped.Degraded || wrapped.TasksDropped != 0 || wrapped.TasksRequeued != 0 ||
		wrapped.TasksReasked != 0 || wrapped.RoundRetries != 0 || wrapped.FailedRounds != 0 {
		t.Fatalf("fault-free run shows robustness activity: %+v", wrapped)
	}
	if wrapped.TasksAnswered != wrapped.TasksPosted || wrapped.BudgetSpent != wrapped.TasksPosted {
		t.Fatalf("fault-free ledger off: posted %d answered %d spent %d",
			wrapped.TasksPosted, wrapped.TasksAnswered, wrapped.BudgetSpent)
	}
}

// TestFaultedRunsAreDeterministic pins the seeded fault schedule: two
// runs under identical seeds — worker noise, selection tie-breaks, and
// injected drops/outages/spam — must return byte-identical results.
func TestFaultedRunsAreDeterministic(t *testing.T) {
	truth, incomplete := robustEnv(311, 90)

	run := func() *Result {
		inner := crowd.NewSimulated(truth, 0.9, rand.New(rand.NewSource(313)))
		platform := crowd.NewUnreliable(inner, 0.25, 0.15, 0.1, rand.New(rand.NewSource(314)))
		opt := robustOpts(312)
		opt.Workers = 1 // one worker: even cache counters are reproducible
		opt.MaxRetries = 2
		opt.ReaskConflicts = 3
		res, err := Run(incomplete, platform, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	a, b := run(), run()
	if !reflect.DeepEqual(stripVolatile(a), stripVolatile(b)) {
		t.Fatalf("same seeds diverged:\na: %+v\nb: %+v", stripVolatile(a), stripVolatile(b))
	}
	if a.TasksDropped == 0 && a.FailedRounds == 0 {
		t.Fatal("fault schedule injected nothing; the determinism check is vacuous")
	}
}

// adversary scripts the platform behavior per Post call, cycling through
// a fixed sequence of failure modes; it tracks every answer actually
// delivered so tests can check exact budget accounting.
type adversary struct {
	inner     crowd.Platform
	modes     []string
	call      int
	delivered int
}

func (a *adversary) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	mode := a.modes[a.call%len(a.modes)]
	a.call++
	answers, err := a.inner.Post(tasks)
	if err != nil {
		return nil, err
	}
	switch mode {
	case "full":
	case "drop":
		kept := answers[:0]
		for i, ans := range answers {
			if i%2 == 0 {
				kept = append(kept, ans)
			}
		}
		answers = kept
	case "outage":
		return nil, errors.New("scripted outage")
	case "partial+error":
		answers = answers[:len(answers)/2]
		a.delivered += len(answers)
		return answers, errors.New("scripted mid-round failure")
	case "lie":
		// Flip every relation; wrong constant answers are how noisy
		// workers manufacture knowledge conflicts.
		for i := range answers {
			switch answers[i].Rel {
			case ctable.LT:
				answers[i].Rel = ctable.GT
			case ctable.GT:
				answers[i].Rel = ctable.LT
			default:
				answers[i].Rel = ctable.GT
			}
		}
	default:
		panic("unknown mode " + mode)
	}
	a.delivered += len(answers)
	return answers, nil
}

// TestAdversarialPartialAnswerSequences drives the crowd phase through
// every combination of the adversary's failure modes and asserts the
// hard invariants: termination within the latency bound, no error
// (degradation instead), and an exact budget ledger — under
// charge-on-answer the budget units spent equal the answers delivered.
func TestAdversarialPartialAnswerSequences(t *testing.T) {
	modeSets := [][]string{
		{"full"},
		{"drop"},
		{"outage", "full"},
		{"partial+error", "full"},
		{"lie", "full"},
		{"drop", "outage", "full"},
		{"drop", "lie", "partial+error", "full"},
		{"outage", "drop", "lie", "full", "partial+error"},
	}
	for _, chargeOnPost := range []bool{false, true} {
		for _, reask := range []int{0, 3} {
			for i, modes := range modeSets {
				name := fmt.Sprintf("charge=%v/reask=%d/%s", chargeOnPost, reask, strings.Join(modes, ","))
				truth, incomplete := robustEnv(401+int64(i), 70)
				adv := &adversary{inner: crowd.NewSimulated(truth, 1.0, nil), modes: modes}
				opt := robustOpts(402 + int64(i))
				opt.MaxRetries = 2
				opt.ChargeOnPost = chargeOnPost
				opt.ReaskConflicts = reask

				res, err := Run(incomplete, adv, opt)
				if err != nil {
					t.Fatalf("%s: run errored instead of degrading: %v", name, err)
				}
				if res.Rounds > opt.Latency {
					t.Errorf("%s: %d rounds exceed latency bound %d", name, res.Rounds, opt.Latency)
				}
				// Re-ask copies face the same adversary, so of the
				// TasksReasked posted copies anywhere from none to all may
				// actually be delivered on top of the main-batch answers.
				if adv.delivered < res.TasksAnswered || adv.delivered > res.TasksAnswered+res.TasksReasked {
					t.Errorf("%s: delivered %d outside [answered %d, answered+reasked %d]",
						name, adv.delivered, res.TasksAnswered, res.TasksAnswered+res.TasksReasked)
				}
				if res.TasksDropped != res.TasksPosted-res.TasksAnswered {
					t.Errorf("%s: dropped %d != posted %d - answered %d",
						name, res.TasksDropped, res.TasksPosted, res.TasksAnswered)
				}
				if !chargeOnPost && res.BudgetSpent != adv.delivered {
					t.Errorf("%s: charge-on-answer ledger %d != answers delivered %d",
						name, res.BudgetSpent, adv.delivered)
				}
				if chargeOnPost && res.BudgetSpent < res.TasksPosted {
					t.Errorf("%s: charge-on-post ledger %d below posted %d",
						name, res.BudgetSpent, res.TasksPosted)
				}
				onlyOutage := true
				for _, m := range modes {
					if m != "outage" {
						onlyOutage = false
					}
				}
				if onlyOutage && !res.Degraded {
					t.Errorf("%s: permanent outage did not degrade", name)
				}
			}
		}
	}
}

// TestPermanentOutageDegradesGracefully: a platform that never answers
// must not hang or error out — it burns MaxRetries with backoff and
// returns a degraded best-effort result.
func TestPermanentOutageDegradesGracefully(t *testing.T) {
	truth, incomplete := robustEnv(421, 70)
	adv := &adversary{inner: crowd.NewSimulated(truth, 1.0, nil), modes: []string{"outage"}}
	opt := robustOpts(422)
	opt.MaxRetries = 2
	opt.RetryBackoff = time.Millisecond

	res, err := Run(incomplete, adv, opt)
	if err != nil {
		t.Fatalf("permanent outage errored: %v", err)
	}
	if !res.Degraded || !strings.Contains(res.DegradedReason, "after 2 retries") {
		t.Fatalf("Degraded=%v reason=%q", res.Degraded, res.DegradedReason)
	}
	if res.FailedRounds != 3 || res.RoundRetries != 2 {
		t.Fatalf("failed=%d retried=%d, want 3 attempts = 2 retries", res.FailedRounds, res.RoundRetries)
	}
	if res.BackoffTime <= 0 {
		t.Fatalf("BackoffTime = %v, want > 0 with a 1ms base", res.BackoffTime)
	}
	if res.Rounds != 0 || res.BudgetSpent != 0 || res.TasksAnswered != 0 {
		t.Fatalf("nothing was delivered yet rounds=%d spent=%d answered=%d",
			res.Rounds, res.BudgetSpent, res.TasksAnswered)
	}
	if res.Answers == nil {
		t.Fatal("degraded run returned no best-effort answer set")
	}
}

// dropAll delivers nothing, successfully: every HIT expires.
type dropAll struct{ posted int }

func (d *dropAll) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	d.posted += len(tasks)
	return nil, nil
}

// TestAllDroppedTerminatesAndDegrades: with every answer dropped the μ
// floor still drains the round allowance, so the phase ends within the
// latency bound, charges nothing under charge-on-answer, re-queues
// everything, and flags the degradation.
func TestAllDroppedTerminatesAndDegrades(t *testing.T) {
	_, incomplete := robustEnv(431, 70)
	d := &dropAll{}
	opt := robustOpts(432)

	res, err := Run(incomplete, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > opt.Latency {
		t.Fatalf("%d rounds exceed latency %d", res.Rounds, opt.Latency)
	}
	if res.BudgetSpent != 0 {
		t.Fatalf("BudgetSpent = %d for zero delivered answers", res.BudgetSpent)
	}
	if res.TasksDropped != d.posted || res.TasksDropped == 0 {
		t.Fatalf("dropped %d of %d posted", res.TasksDropped, d.posted)
	}
	if res.TasksRequeued != res.TasksDropped {
		t.Fatalf("requeued %d != dropped %d (nothing else could decide them)",
			res.TasksRequeued, res.TasksDropped)
	}
	if !res.Degraded || !strings.Contains(res.DegradedReason, "unrecovered") {
		t.Fatalf("Degraded=%v reason=%q", res.Degraded, res.DegradedReason)
	}
}

// impossibleLiar answers truthfully except the first time it sees a
// boundary task — (x < max) or (x > 0) — where it asserts the impossible
// relation (x above its domain maximum / below its minimum). That answer
// conflicts with the variable's full interval immediately, so every lie
// is a knowledge conflict; repeat asks (the re-ask copies) get the truth.
type impossibleLiar struct {
	inner  crowd.Platform
	levels int
	seen   map[ctable.Expr]bool
	lies   int
}

func (l *impossibleLiar) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	answers, err := l.inner.Post(tasks)
	if err != nil {
		return answers, err
	}
	for i := range answers {
		e := answers[i].Task.Expr
		if l.seen[e] {
			continue
		}
		l.seen[e] = true
		switch {
		case e.Kind == ctable.VarLTConst && e.C == l.levels-1:
			answers[i].Rel = ctable.GT // "x exceeds its domain maximum"
			l.lies++
		case e.Kind == ctable.VarGTConst && e.C == 0:
			answers[i].Rel = ctable.LT // "x is below its domain minimum"
			l.lies++
		}
	}
	return answers, nil
}

// TestConflictReaskResolvesLies: conflicting answers are discarded either
// way; with Options.ReaskConflicts the task is re-posted and the truthful
// majority absorbed, turning ConflictingAnswers into ConflictsResolved.
func TestConflictReaskResolvesLies(t *testing.T) {
	const levels = 6
	// Search a few seeds for one whose task mix includes boundary tasks —
	// which seeds do depends on the generated data, not on chance at run
	// time; the loop is deterministic.
	for seed := int64(441); seed < 451; seed++ {
		truth, incomplete := robustEnv(seed, 80)
		run := func(reask int) (*Result, *impossibleLiar) {
			liar := &impossibleLiar{
				inner:  crowd.NewSimulated(truth, 1.0, nil),
				levels: levels, seen: map[ctable.Expr]bool{},
			}
			opt := robustOpts(seed + 100)
			opt.ReaskConflicts = reask
			res, err := Run(incomplete, liar, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res, liar
		}

		discardOnly, liar := run(0)
		if liar.lies == 0 {
			continue // this seed asked no boundary tasks; try the next
		}
		if discardOnly.ConflictingAnswers == 0 {
			t.Fatalf("seed %d: %d impossible lies produced no conflicts", seed, liar.lies)
		}
		if discardOnly.TasksReasked != 0 || discardOnly.ConflictsResolved != 0 {
			t.Fatalf("seed %d: re-ask activity with ReaskConflicts=0: %+v", seed, discardOnly)
		}

		reasked, _ := run(3)
		if reasked.TasksReasked == 0 {
			t.Fatalf("seed %d: conflicts were not re-asked", seed)
		}
		if reasked.ConflictsResolved == 0 {
			t.Fatalf("seed %d: truthful re-ask majority resolved nothing (reasked %d)",
				seed, reasked.TasksReasked)
		}
		return
	}
	t.Fatal("no seed produced boundary tasks; widen the search")
}
