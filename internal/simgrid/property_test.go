package simgrid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Work-conservation property: on a single resource, the total resource-work
// of all completed actions cannot exceed capacity × makespan, and must
// equal it when the resource is never idle (actions all present from t=0).
func TestEngineWorkConservationQuick(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cap := 1 + 9*r.Float64()
		e := NewEngine([]float64{cap})
		nActions := 1 + r.Intn(6)
		total := 0.0
		for i := 0; i < nActions; i++ {
			amount := 0.5 + 10*r.Float64()
			total += amount
			e.Add(&Action{Name: "a", Work: 1, Usage: []Use{{0, amount}}})
		}
		end, err := e.Run()
		if err != nil {
			return false
		}
		// All actions start at t=0 and the resource stays saturated until
		// the last completion, so end == total/cap.
		want := total / cap
		return end > want*(1-1e-9) && end < want*(1+1e-9)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Simultaneity property of L07 sharing: equal-work actions on one resource
// progress at equal rates regardless of their demand weights, so they all
// complete together at t = Σ demands / capacity.
func TestEngineL07SimultaneousCompletionQuick(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cap := 5.0
		e := NewEngine([]float64{cap})
		n := 2 + r.Intn(5)
		total := 0.0
		actions := make([]*Action, n)
		for i := range actions {
			demand := 1 + 20*r.Float64()
			total += demand
			actions[i] = &Action{Name: "a", Work: 1, Usage: []Use{{0, demand}}}
			e.Add(actions[i])
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		want := total / cap
		for _, a := range actions {
			if a.FinishedAt() < want*(1-1e-9) || a.FinishedAt() > want*(1+1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Delay-additivity property: adding a delay to an action shifts its
// completion by exactly that delay when it runs alone.
func TestEngineDelayAdditivityQuick(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		amount := 1 + 10*r.Float64()
		delay := 5 * r.Float64()
		run := func(d float64) float64 {
			e := NewEngine([]float64{2})
			e.Add(&Action{Name: "a", Delay: d, Work: 1, Usage: []Use{{0, amount}}})
			end, err := e.Run()
			if err != nil {
				return -1
			}
			return end
		}
		base := run(0)
		shifted := run(delay)
		if base < 0 || shifted < 0 {
			return false
		}
		diff := shifted - base - delay
		return diff > -1e-9 && diff < 1e-9
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
