package main

import (
	"math"
	"math/rand"
	"testing"
)

// TestReplayTail checks the queue replay on schedules whose answer is
// known: evenly spaced arrivals below capacity never wait, and above it the
// backlog grows by the surplus work of every arrival.
func TestReplayTail(t *testing.T) {
	gaps := make([]float64, 1000)
	for i := range gaps {
		gaps[i] = 1
	}
	service := []float64{10} // ms
	if got := replayTail(service, gaps, 1, 50); math.Abs(got-10) > 1e-9 {
		t.Errorf("one worker at half load: tail %v ms, want 10", got)
	}
	if got := replayTail(service, gaps, 2, 150); math.Abs(got-10) > 1e-9 {
		t.Errorf("two workers at 3/4 load: tail %v ms, want 10", got)
	}
	// At 200 jobs/s one worker falls 5 ms further behind per arrival: the
	// arrival at index i spends 10 + 5i ms in the system.
	at := float64(daemonTailP) / 100 * float64(len(gaps)-1)
	if got := replayTail(service, gaps, 1, 200); math.Abs(got-(10+5*at)) > 1e-6 {
		t.Errorf("one worker at double load: tail %v ms, want %v", got, 10+5*at)
	}
}

// TestReplayMaxRate checks that the bisection finds the capacity when the
// limit never binds below it, and that its answer meets the limit while a
// slightly higher rate does not.
func TestReplayMaxRate(t *testing.T) {
	even := make([]float64, 500)
	for i := range even {
		even[i] = 1
	}
	if got := replayMaxRate([]float64{10}, even, 1); math.Abs(got-100) > 1e-3 {
		t.Errorf("even arrivals, 10 ms jobs, one worker: %v jobs/s, want 100", got)
	}
	if got := replayMaxRate([]float64{10}, even, 2); math.Abs(got-200) > 1e-3 {
		t.Errorf("even arrivals, 10 ms jobs, two workers: %v jobs/s, want 200", got)
	}

	rng := rand.New(rand.NewSource(1))
	gaps := expGaps(rng, 5000)
	service := make([]float64, 300)
	for i := range service {
		service[i] = 5 + 30*rng.Float64()
	}
	rate := replayMaxRate(service, gaps, 1)
	if rate <= 0 || replayTail(service, gaps, 1, rate) >= daemonLimitMS ||
		replayTail(service, gaps, 1, rate*1.001) < daemonLimitMS {
		t.Errorf("max rate %v does not sit at the limit", rate)
	}
}
