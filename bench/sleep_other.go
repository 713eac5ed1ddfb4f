//go:build !linux

package main

import "time"

// waiter falls back to time.Sleep where there is no timerfd; the
// generator's lateness, reported as bench.lag_ratio, shows the cost.
type waiter struct{}

func newWaiter() (*waiter, error) { return &waiter{}, nil }

func (*waiter) until(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (*waiter) close() {}
