package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostInfo records the machine a run measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	LLCBytes   int64  `json:"llc_bytes"`
	GoVersion  string `json:"go_version"`
	// AVX2 reports whether the native engine runs its AVX2 primitives:
	// they are built on amd64, and need the CPU flag.
	AVX2 bool `json:"avx2"`
}

func probeHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	flags := ""
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				if h.CPU == "" {
					h.CPU = strings.TrimSpace(v)
				}
			case "flags":
				if flags == "" {
					flags = " " + v + " "
				}
			}
		}
	}
	h.AVX2 = runtime.GOARCH == "amd64" && strings.Contains(flags, " avx2 ")
	// The last-level cache is the highest cache level sysfs lists for cpu0.
	// Entries that cannot be read or parsed leave the size at 0 (unknown).
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	level := 0
	for _, d := range dirs {
		lb, err1 := os.ReadFile(filepath.Join(d, "level"))
		sb, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		l, _ := strconv.Atoi(strings.TrimSpace(string(lb)))
		if l > level {
			level = l
			h.LLCBytes = parseSize(strings.TrimSpace(string(sb)))
		}
	}
	return h
}

// parseSize reads sysfs cache sizes such as "107520K".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, _ := strconv.ParseInt(s, 10, 64)
	return n * mult
}

// triadArrayBytes sizes each triad array at four times the last-level
// cache (32 MiB assumed when sysfs does not say), so no pass is served
// from cache.
func triadArrayBytes(llc int64) int64 {
	if llc <= 0 {
		llc = 32 << 20
	}
	return 4 * llc
}

// triadGBs measures sustainable memory bandwidth with the STREAM triad
// a[i] = b[i] + s*c[i] over float64 arrays of arrayBytes each, split
// across GOMAXPROCS goroutines. It counts 24 bytes per element (two
// loads and one store) and returns the median of five passes.
func triadGBs(arrayBytes int64) float64 {
	n := int(arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	parts := runtime.GOMAXPROCS(0)
	pass := func(body func(lo, hi int)) {
		var wg sync.WaitGroup
		for p := 0; p < parts; p++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				body(lo, hi)
			}(n*p/parts, n*(p+1)/parts)
		}
		wg.Wait()
	}
	pass(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	rates := make([]float64, 5)
	for r := range rates {
		t := time.Now()
		pass(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a[i] = b[i] + 3*c[i]
			}
		})
		rates[r] = 24 * float64(n) / time.Since(t).Seconds() / 1e9
	}
	a, b, c = nil, nil, nil
	debug.FreeOSMemory()
	return median(rates)
}

// cpuTicks reads the host's cumulative CPU ticks from /proc/stat: the
// ticks a hypervisor stole from the host's virtual CPUs, and all ticks.
// Both are 0 where the file is unavailable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
