package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// On a host this small, which threads happen to share a CPU decides the
// packet rate (150k or 235k datagrams/s on the same code, flipping every
// few seconds), so placement is fixed instead of left to luck: the
// forwarder gets the first half of the CPUs, the load generator the rest.
// The forwarder inherits its set at exec, as under taskset, so its
// GOMAXPROCS matches what it may use.

type cpuMask [16]uint64 // 1024 CPUs

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// setThreadAffinity pins one thread (0 = the calling thread).
func setThreadAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// cpuSplit returns the forwarder's and the load generator's CPUs, and all
// of them.
func cpuSplit() (fwd, gen, all []int) {
	n := nproc()
	for c := 0; c < n; c++ {
		all = append(all, c)
	}
	if n == 1 {
		return all, all, all // a single CPU is shared
	}
	return all[:n/2], all[n/2:], all
}

// pinSelf confines every thread of this process to cpus. Affinity is per
// thread and new threads inherit their creator's, so the threads are swept
// until a pass meets none it has not pinned yet.
func pinSelf(cpus []int) error {
	m := maskOf(cpus)
	done := map[int]bool{}
	for pass := 0; pass < 10; pass++ {
		entries, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := 0
		for _, e := range entries {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || done[tid] {
				continue
			}
			// A thread may exit between the listing and the call.
			if err := setThreadAffinity(tid, &m); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
			done[tid] = true
			fresh++
		}
		if fresh == 0 {
			break
		}
	}
	return nil
}

// startPinned starts cmd so that it inherits affinity to cpus: the calling
// thread takes the set, forks the child, and returns to back.
func startPinned(cmd *exec.Cmd, cpus, back []int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	child, own := maskOf(cpus), maskOf(back)
	if err := setThreadAffinity(0, &child); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := setThreadAffinity(0, &own); err == nil {
		err = rerr
	}
	return err
}
