package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// ticker paces the open-loop generator. It is a timerfd read through the
// Go network poller rather than a time.Ticker or a spin: while a Go
// process is otherwise idle its runtime timers fire from the poller's
// millisecond time-out (time.Sleep(500us) oversleeps by ~550 us on the
// reference host and put 0.5 ms of generator lateness into p50_us); a
// blocking nanosleep pins one of the two Ps in a system call; and a loop
// that yields until the due time takes enough processor from the shard
// pipelines to halve kv-write-mix's open-loop capacity. A timerfd becomes
// readable on the kernel's high-resolution timer and costs nothing while
// it waits (~60 us late at the median; client.sched_lag_p99_us reports
// the tail).
type ticker struct {
	f *os.File
}

type itimerspec struct {
	interval, value syscall.Timespec
}

func newTicker(every time.Duration) (*ticker, error) {
	const clockMonotonic, tfdNonblock = 1, 0x800
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	ts := syscall.NsecToTimespec(int64(every))
	its := itimerspec{interval: ts, value: ts}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &ticker{f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks until at least one more tick has passed. The caller reads
// the clock itself, so a failed read only makes bursts late.
func (t *ticker) wait() {
	var expirations [8]byte
	t.f.Read(expirations[:])
}

func (t *ticker) stop() { t.f.Close() }
