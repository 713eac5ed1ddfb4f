package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// The open-loop generator must send each request within tens of
// microseconds of its due time. time.Sleep rounds short sleeps up to about
// a millisecond here, and a blocking nanosleep holds its P, so the server
// goroutines sharing the process stall until the runtime takes it back.
// A timerfd does neither: the goroutine parks in the network poller, which
// the kernel wakes at the timer's exact expiry.

// waiter sleeps one goroutine until a deadline.
type waiter struct {
	f  *os.File
	rc syscall.RawConn
}

func newWaiter() (*waiter, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	f := os.NewFile(fd, "timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &waiter{f: f, rc: rc}, nil
}

// until returns at t, or at once when t has passed.
func (w *waiter) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	var errno syscall.Errno
	if err := w.rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := w.f.Read(expirations[:])
	return err
}

func (w *waiter) close() { w.f.Close() }
