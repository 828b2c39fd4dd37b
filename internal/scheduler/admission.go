package scheduler

import (
	"math"
	"time"
)

// Task is a periodic real-time transaction for admission testing: worst-case
// execution (or transmission) time C every period T.
type Task struct {
	C time.Duration
	T time.Duration
}

// Utilization returns Σ C_i/T_i.
func Utilization(tasks []Task) float64 {
	u := 0.0
	for _, t := range tasks {
		if t.T > 0 {
			u += float64(t.C) / float64(t.T)
		}
	}
	return u
}

// RMBound returns the Liu-Layland rate-monotonic schedulability bound
// n(2^(1/n)-1) for n tasks (1 for n <= 0, approaching ln 2 ≈ 0.693).
func RMBound(n int) float64 {
	if n <= 0 {
		return 1
	}
	return float64(n) * (math.Pow(2, 1/float64(n)) - 1)
}

// RMAdmissible reports whether the task set passes the rate-monotonic
// utilization test: U ≤ n(2^(1/n)-1). It is sufficient, not necessary; sets
// above the bound may still be schedulable but are rejected.
func RMAdmissible(tasks []Task) bool {
	return Utilization(tasks) <= RMBound(len(tasks))+1e-12
}

// EDFAdmissible reports the earliest-deadline-first bound: U ≤ 1.
func EDFAdmissible(tasks []Task) bool {
	return Utilization(tasks) <= 1+1e-12
}
