package main

import (
	"context"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until an instant with a Linux timerfd read through the
// runtime's network poller. The runtime's own timers round waits below a
// millisecond up to a whole one on a quiet process, which an open loop
// would add to every request timed from its due instant; a timerfd
// expiry wakes the poller within tens of microseconds and holds no P
// while it waits.
type pacer struct {
	fd int
	f  *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

func (p *pacer) close() { p.f.Close() }

// sleepUntil waits until t; it reports false once ctx is done.
func (p *pacer) sleepUntil(ctx context.Context, t time.Time) bool {
	for ctx.Err() == nil {
		wait := time.Until(t)
		if wait <= 0 {
			return true
		}
		wait = min(wait, 50*time.Millisecond) // recheck ctx at least this often
		spec := [4]int64{0, 0, int64(wait / time.Second), int64(wait % time.Second)}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			time.Sleep(wait) // cannot happen for a valid fd; degrade to the runtime timer
			continue
		}
		var expirations [8]byte
		_, _ = p.f.Read(expirations[:]) // returns at expiry; an error only shortens the wait
	}
	return false
}
