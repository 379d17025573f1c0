package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// machineFacts is recorded in every result file, so two sets of numbers can
// be told apart by the box they were taken on before they are compared.
type machineFacts struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	CPUModel   string  `json:"cpu_model"`
	CalibMops  float64 `json:"calib_mops"`        // single-core integer loop, million iterations per second
	SleepOver  float64 `json:"sleep_1ms_over_us"` // median overshoot of time.Sleep(1ms)
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

func readMachineFacts() machineFacts {
	f := machineFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		CPUModel:   cpuModel(),
	}
	// A fixed xorshift loop for a tenth of a second: a number that moves
	// when the box is throttled or shared, read next to every result.
	const batch = 1 << 20
	x, iters := uint64(88172645463325252), 0
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for i := 0; i < batch; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		iters += batch
	}
	calibSink = x
	f.CalibMops = float64(iters) / time.Since(start).Seconds() / 1e6

	// Why the load is a closed loop: a sleep-paced open loop would bill this
	// overshoot to the program as queueing delay.
	over := make([]float64, 0, 25)
	for i := 0; i < 25; i++ {
		t0 := time.Now()
		time.Sleep(time.Millisecond)
		over = append(over, float64(time.Since(t0)-time.Millisecond)/1e3)
	}
	f.SleepOver = median(over)
	return f
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cpuTicks reads the kernel's CPU accounting: all ticks, and the ticks a
// hypervisor gave to someone else while this guest wanted to run. On a
// shared box stolen time is the largest source of run-to-run noise, so every
// record states the share its window lost. ok is false where /proc/stat does
// not exist.
func cpuTicks() (total, stolen uint64, ok bool) {
	fields := strings.Fields(firstLine("/proc/stat"))
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			stolen = v
		}
	}
	return total, stolen, true
}
