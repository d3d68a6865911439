package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile returns the nearest-rank value at the want-th percentile of
// sorted, lowered where needed to the highest percentile that still has at
// least ten samples beyond it, together with the percentile it used. A p99
// from 200 samples rests on two samples; this rule reports p95 instead and
// says so. With ten or fewer samples no percentile qualifies and the
// minimum is returned.
func tailPercentile(sorted []float64, want float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(want*float64(n)/100 - 1e-9))
	if highest := n - 10; rank > highest {
		rank = highest
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], 100 * float64(rank) / float64(n)
}

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Times are offsets from the recorder's start.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = no parent
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// recorder keeps spans in memory; write saves them once the run is over.
// Spans may begin and end on any goroutine.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name string, parent int) int {
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// durations returns the duration in seconds of every span with this name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.named(name) {
		out = append(out, s.seconds())
	}
	return out
}

// named returns every span with this name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// children returns the spans whose parent is id.
func (r *recorder) children(id int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as one JSON object per line.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children that overlap each other (parallel workers)
// count their union once.
func selfTime(parent span, children []span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := math.Max(c.Start, parent.Start), math.Min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, curLo, curHi := 0.0, 0.0, math.Inf(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = math.Max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.seconds() - covered
}

// resetPeakRSS starts a new peak-resident-memory window, so that the
// timed loop's peak excludes set-up and warm-up (Linux's clear_refs "5").
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size in MiB since the last
// resetPeakRSS, or since the process started.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// Go runtime counters read around timed batches.
const (
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mSchedLat   = "/sched/latencies:seconds"
	mHeapObj    = "/memory/classes/heap/objects:bytes"
)

// goSnapshot is one reading of the runtime counters the benchmark reports.
type goSnapshot struct {
	gcCycles   uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	schedLat   *metrics.Float64Histogram
}

func readGo() goSnapshot {
	s := []metrics.Sample{
		{Name: mGCCycles}, {Name: mAllocBytes}, {Name: mGCCPU},
		{Name: mTotalCPU}, {Name: mSchedLat},
	}
	metrics.Read(s)
	return goSnapshot{
		gcCycles:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		schedLat:   s[4].Value.Float64Histogram(),
	}
}

// liveHeapMB is the heap occupied by objects right now, in MiB: live data
// plus garbage the collector has not yet swept.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: mHeapObj}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// histQuantile returns the q-quantile (0..1) of the counts added between
// two readings of one runtime histogram, as the upper bound of the bucket
// holding it (the lower bound for the open last bucket).
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return math.NaN()
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= target {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}
