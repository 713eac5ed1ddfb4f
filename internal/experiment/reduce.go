package experiment

import (
	"strconv"

	"samnet/internal/report"
)

// The paper's evaluation shows one value per run and reduces each column to
// a mean. These are that reduction, shared by every experiment: each folds a
// run-ordered slice in run order, so a float sum is the same bytes at every
// worker count.

// number is a value a run contributes to a sum.
type number interface{ ~int | ~int64 | ~float64 }

// sum folds f over rs in run order.
func sum[T any, N number](rs []T, f func(T) N) N {
	var s N
	for _, r := range rs {
		s += f(r)
	}
	return s
}

// mean is f's sum over rs divided by the number of runs.
func mean[T any](rs []T, f func(T) float64) float64 {
	return sum(rs, f) / float64(len(rs))
}

// count is how many runs satisfy ok.
func count[T any](rs []T, ok func(T) bool) int {
	n := 0
	for _, r := range rs {
		if ok(r) {
			n++
		}
	}
	return n
}

// rate is the fraction of runs that satisfy ok, 0 for no runs.
func rate[T any](rs []T, ok func(T) bool) float64 {
	return ratio(count(rs, ok), len(rs))
}

// ratio is num/den, 0 when den is 0.
func ratio[N number](num, den N) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perRunTable adds to t one row per run of cols — the run's number, then
// cell of each column's run — and a summary row: label, then summary of each
// column.
func perRunTable[T any](t *report.Table, cols [][]T, cell func(T) string, label string, summary func([]T) string) *report.Table {
	for run := range cols[0] {
		row := []string{strconv.Itoa(run + 1)}
		for _, col := range cols {
			row = append(row, cell(col[run]))
		}
		t.AddRow(row...)
	}
	row := []string{label}
	for _, col := range cols {
		row = append(row, summary(col))
	}
	t.AddRow(row...)
	return t
}
