// Package rss reads this process's resident-set-size counters from
// /proc/self/status: the kernel's accounting of the live process, not Go
// runtime heap stats, which never see mmap'ed or off-heap pages. On
// platforms without procfs both functions return 0 and callers report
// the metric as unavailable.
package rss

import (
	"bytes"
	"os"
	"strconv"
)

// Peak returns VmHWM, the process's high-water resident set size in
// bytes — the peak since process start.
func Peak() int64 { return readStatus("VmHWM:") }

// Current returns VmRSS, the resident set size right now, in bytes.
func Current() int64 { return readStatus("VmRSS:") }

// Anon returns RssAnon, the part of VmRSS that is anonymous memory (the
// Go heap and anonymous mappings, not file pages), in bytes.
func Anon() int64 { return readStatus("RssAnon:") }

func readStatus(field string) int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	i := bytes.Index(data, []byte(field))
	if i < 0 {
		return 0
	}
	line := data[i+len(field):]
	if j := bytes.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	line = bytes.TrimSuffix(bytes.TrimSpace(line), []byte(" kB"))
	kb, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 10, 64)
	if err != nil {
		return 0
	}
	return kb << 10
}
