package trace

import (
	"strings"
	"testing"
	"time"
)

func fixedClock(t *time.Duration) func() time.Duration {
	return func() time.Duration { return *t }
}

func TestAddAndFilter(t *testing.T) {
	now := time.Duration(0)
	l := NewLog(fixedClock(&now), 0)
	l.Add(CatAdapt, "video", "level 3 -> 2", 2)
	now = time.Second
	l.Add(CatDevice, "disk", "idle -> standby", 0)
	l.Add(CatAdapt, "speech", "level 1 -> 0", 0)

	if l.Len() != 3 {
		t.Fatalf("len %d", l.Len())
	}
	adapts := l.Filter(CatAdapt, "")
	if len(adapts) != 2 {
		t.Fatalf("%d adapt events", len(adapts))
	}
	video := l.Filter(CatAdapt, "video")
	if len(video) != 1 || video[0].Value != 2 {
		t.Fatalf("video events %v", video)
	}
	all := l.Filter("", "")
	if len(all) != 3 {
		t.Fatalf("unfiltered %d", len(all))
	}
	if all[1].Time != time.Second {
		t.Fatalf("timestamp %v", all[1].Time)
	}
}

// TestBoundedDropsOldest: at every capacity, including those too small to
// halve, the log stays within its bound, accounts for every event as
// retained or dropped, keeps the newest, and preserves order.
func TestBoundedDropsOldest(t *testing.T) {
	now := time.Duration(0)
	for _, capacity := range []int{1, 2, 3, 8} {
		l := NewLog(fixedClock(&now), capacity)
		for adds := 1; adds <= 20; adds++ {
			l.Add(CatOp, "app", "op", float64(adds))
			if l.Len() > capacity {
				t.Fatalf("cap %d after %d adds: len %d beyond cap", capacity, adds, l.Len())
			}
			if l.Len()+l.Dropped() != adds {
				t.Fatalf("cap %d after %d adds: len %d + dropped %d", capacity, adds, l.Len(), l.Dropped())
			}
			evs := l.Events()
			if evs[len(evs)-1].Value != float64(adds) {
				t.Fatalf("cap %d after %d adds: newest retained value %v", capacity, adds, evs[len(evs)-1].Value)
			}
			for i := 1; i < len(evs); i++ {
				if evs[i].Value != evs[i-1].Value+1 {
					t.Fatalf("cap %d after %d adds: retained events %v not in order", capacity, adds, evs)
				}
			}
		}
	}
}

func TestCounts(t *testing.T) {
	now := time.Duration(0)
	l := NewLog(fixedClock(&now), 0)
	l.Add(CatAdapt, "video", "x", 0)
	l.Add(CatAdapt, "video", "y", 0)
	l.Add(CatDevice, "nic", "z", 0)
	keys, counts := l.Counts()
	if len(keys) != 2 || counts["adapt/video"] != 2 || counts["device/nic"] != 1 {
		t.Fatalf("counts %v %v", keys, counts)
	}
}

func TestTextAndCSV(t *testing.T) {
	now := 1500 * time.Millisecond
	l := NewLog(fixedClock(&now), 0)
	l.Add(CatMonitor, "odyssey", `degrade "video"`, 1)
	text := l.Text()
	if !strings.Contains(text, "monitor") || !strings.Contains(text, "odyssey") {
		t.Fatalf("text: %q", text)
	}
	csv := l.CSV()
	if !strings.HasPrefix(csv, "t_seconds,category,subject,message,value\n") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "1.500,monitor,odyssey") {
		t.Fatalf("csv row: %q", csv)
	}
	// Quoted message survives embedded quotes.
	if !strings.Contains(csv, `"degrade \"video\""`) {
		t.Fatalf("csv quoting: %q", csv)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 2 * time.Second, Category: CatDevice, Subject: "disk", Message: "spin-up", Value: 2.3}
	s := e.String()
	for _, want := range []string{"2.000s", "device", "disk", "spin-up"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
}

func TestNewLogReservesNothing(t *testing.T) {
	now := func() time.Duration { return 0 }
	var l *Log
	if allocs := testing.AllocsPerRun(100, func() { l = NewLog(now, 0) }); allocs != 1 {
		t.Fatalf("NewLog made %v allocations, want only the Log itself", allocs)
	}
	if cap(l.events) != 0 {
		t.Fatalf("NewLog reserved %d events", cap(l.events))
	}
}

func TestAddGrowsToBound(t *testing.T) {
	now := time.Duration(0)
	l := NewLog(fixedClock(&now), 100)
	for i := 0; i < 250; i++ {
		l.Add(CatOp, "app", "op", float64(i))
		if cap(l.events) > 100 {
			t.Fatalf("backing array grew to %d beyond the bound", cap(l.events))
		}
	}
	// Once the backing array reaches the bound it is reused.
	if allocs := testing.AllocsPerRun(100, func() { l.Add(CatOp, "app", "op", 0) }); allocs != 0 {
		t.Fatalf("Add at the bound made %v allocations", allocs)
	}
}
