//go:build !linux

package main

import "time"

// ticker paces the open-loop generator; off Linux it is a time.Ticker,
// with whatever granularity the runtime's timers have there.
type ticker struct {
	t *time.Ticker
}

func newTicker(every time.Duration) (*ticker, error) {
	return &ticker{t: time.NewTicker(every)}, nil
}

func (t *ticker) wait() { <-t.t.C }

func (t *ticker) stop() { t.t.Stop() }
