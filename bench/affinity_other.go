//go:build !linux

package main

import (
	"errors"
	"os/exec"
)

// CPU placement is only implemented for Linux; elsewhere the benchmark
// runs unpinned and says so.

var errNoAffinity = errors.New("CPU affinity is not implemented on this OS")

func cpuSplit() (fwd, gen, all []int) { return nil, nil, nil }

func pinSelf([]int) error { return errNoAffinity }

func startPinned(cmd *exec.Cmd, cpus, back []int) error { return cmd.Start() }
