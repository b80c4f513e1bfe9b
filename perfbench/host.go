package main

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"

	"papyruskv"
)

// hostRecord identifies where and on what code a result was measured.
func hostRecord() map[string]any {
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"git_sha":    sha,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// optionRecord lists every field of the option set a workload opened its
// database with; function-valued fields (the hash) are recorded as set or
// nil.
func optionRecord(o papyruskv.Options) map[string]string {
	out := map[string]string{}
	v := reflect.ValueOf(o)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Func {
			out[v.Type().Field(i).Name] = map[bool]string{true: "nil (DefaultHash)", false: "custom"}[f.IsNil()]
			continue
		}
		out[v.Type().Field(i).Name] = fmt.Sprint(f.Interface())
	}
	return out
}

// cpuMark is a reading of the host-wide CPU time counters of /proc/stat.
type cpuMark struct{ total, steal uint64 }

func markCPU() cpuMark {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuMark{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuMark{}
	}
	var m cpuMark
	for i, s := range f[1:9] { // user .. steal; guest time is already in user
		var v uint64
		fmt.Sscan(s, &v)
		m.total += v
		if i == 7 {
			m.steal = v
		}
	}
	return m
}

// stolen is the share of CPU time between a and b that the hypervisor gave
// to other guests: 0 on bare metal or without /proc/stat.
func stolen(a, b cpuMark) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
