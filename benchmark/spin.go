package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Host-noise control. On a virtual machine an idle virtual CPU halts, and
// waking it costs a trip through the hypervisor whose length depends on
// what the physical host is doing. A closed loop over loopback is nothing
// but such wake-ups, four per request, so on the 2-vCPU development host
// identical runs sat on plateaus 30 % apart. One SCHED_IDLE spinner per
// CPU keeps the virtual CPUs from halting: the kernel runs it only when
// nothing else wants the CPU and preempts it at once when something does,
// so it takes no time from the daemon or the load generator, but a wake-up
// becomes a local preemption. With the spinners the run-to-run spread of
// hot_small's ops/s fell from about 0.20 to about 0.07 of the median.

const schedIdle = 5 // SCHED_IDLE from <linux/sched.h>

// startSpinners starts one idle-priority busy loop per CPU and returns the
// function that stops them, or nil when the kernel refuses the scheduling
// class (the spinners must never run at normal priority, where they would
// take half the machine).
func startSpinners() (stop func()) {
	n := runtime.NumCPU()
	// Each spinner occupies a P for good; give the rest of the harness
	// the Ps it had.
	prev := runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + n)
	var quit atomic.Bool
	var wg sync.WaitGroup
	started := make(chan bool, n) // one report per spinner
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			var param struct{ priority int32 }
			_, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
			started <- errno == 0
			if errno != 0 {
				return
			}
			for !quit.Load() {
			}
		}()
	}
	ok := true
	for i := 0; i < n; i++ {
		ok = <-started && ok
	}
	stop = func() {
		quit.Store(true)
		wg.Wait()
		runtime.GOMAXPROCS(prev)
	}
	if !ok {
		stop()
		return nil
	}
	return stop
}
