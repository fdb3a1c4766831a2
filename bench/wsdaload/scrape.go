package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// promSeries is one scrape of a daemon's /metrics: full series name
// (labels included, as exposed) to value.
type promSeries map[string]float64

// parseProm reads Prometheus text exposition. Comment lines and
// histogram buckets are dropped: the harness only diffs counters, sums
// and counts.
func parseProm(r io.Reader) (promSeries, error) {
	out := promSeries{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		name := line[:i]
		if strings.Contains(name, "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family (all label sets) whose label text
// contains each of the given fragments, e.g. sum("wsda_router_fanout_total",
// `route="scatter"`).
func (s promSeries) sum(family string, labelFragments ...string) float64 {
	var total float64
	for name, v := range s {
		base, labels, _ := strings.Cut(name, "{")
		if base != family {
			continue
		}
		ok := true
		for _, f := range labelFragments {
			if !strings.Contains(labels, f) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// promDelta returns after − before for every series in after; a series
// that first appeared during the window counts from zero.
func promDelta(before, after promSeries) promSeries {
	d := make(promSeries, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func scrapeMetrics(hc *http.Client, base string) (promSeries, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s answered %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go supports.
const clockTick = 100

// parseProcStat returns utime+stime, in milliseconds, of one
// /proc/<pid>/stat line. The command name sits in parentheses and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')'.
func parseProcStat(line string) (cpuMS float64, err error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", line)
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut+st) * 1000 / clockTick, nil
}

func readProcCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

// statusField returns the numeric value of one "Key:\t123 kB"-style line
// of a /proc status file.
func statusField(status, key string) float64 {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// readPeakRSSMB is the process's resident high-water mark (VmHWM).
func readPeakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	return statusField(string(data), "VmHWM") / 1024
}

// readVolCtxSw sums voluntary context switches over the process's threads:
// the per-process status file reports the main thread only, and a Go
// daemon blocks on its worker threads.
func readVolCtxSw(pid int) float64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	var total float64
	for _, t := range tasks {
		if data, err := os.ReadFile(t); err == nil {
			total += statusField(string(data), "voluntary_ctxt_switches")
		}
	}
	return total
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in ticks.
type hostCPU struct{ total, steal float64 }

func parseHostCPU(stat string) hostCPU {
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		var h hostCPU
		for i, s := range f[1:] {
			v, _ := strconv.ParseFloat(s, 64)
			// guest and guest_nice (fields 9, 10) are already in user/nice.
			if i < 8 {
				h.total += v
			}
			if i == 7 {
				h.steal = v
			}
		}
		return h
	}
	return hostCPU{}
}

func readHostCPU() hostCPU {
	data, _ := os.ReadFile("/proc/stat")
	return parseHostCPU(string(data))
}

func readLoadavg() float64 {
	data, _ := os.ReadFile("/proc/loadavg")
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}
