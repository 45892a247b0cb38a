package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostProbe is one reading of the process-wide host counters:
// allocations, CPU seconds, GC CPU seconds and the wall clock.  Two
// readings bracket a timed window; ReadMemStats stops the world, so
// none is taken inside one.
type hostProbe struct {
	start   time.Time
	mallocs uint64
	bytes   uint64
	cpu     float64
	gcCPU   float64
	allCPU  float64
}

type hostDelta struct {
	Wall    float64 // seconds
	Mallocs float64
	Bytes   float64
	CPU     float64 // user+system seconds of the process
	GCFrac  float64 // GC CPU seconds / all CPU seconds the runtime accounted
}

func readHost() hostProbe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, all := runtimeCPU()
	return hostProbe{start: time.Now(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		cpu: processCPU(), gcCPU: gc, allCPU: all}
}

// since is what the process did after the reading p.
func (p hostProbe) since() hostDelta {
	wall := time.Since(p.start).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, all := runtimeCPU()
	d := hostDelta{Wall: wall, Mallocs: float64(ms.Mallocs - p.mallocs),
		Bytes: float64(ms.TotalAlloc - p.bytes), CPU: processCPU() - p.cpu}
	if all > p.allCPU {
		d.GCFrac = (gc - p.gcCPU) / (all - p.allCPU)
	}
	return d
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func runtimeCPU() (gc, all float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), 0
// where /proc does not say.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
