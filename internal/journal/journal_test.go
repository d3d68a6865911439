package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type header struct {
	Run string `json:"run"`
}

type entry struct {
	K int    `json:"k"`
	V string `json:"v"`
}

// rejectNegative is a validity check: entries with a negative key are
// refused with a reason.
func rejectNegative(e entry) string {
	if e.K < 0 {
		return "negative key"
	}
	return ""
}

// TestRead covers the reader's rules: what it keeps, what it skips with a
// warning, and when it tells the caller to start the journal over.
func TestRead(t *testing.T) {
	hdr := header{Run: "a"}
	cases := []struct {
		name     string
		content  *string // nil = no file
		header   any
		want     []entry
		warnings []string // substrings, one per expected warning
		ok       bool
	}{
		{name: "missing file reads as empty", ok: true},
		{name: "missing file with a header starts over", header: hdr, ok: false},
		{name: "empty file with a header starts over", content: ptr(""), header: hdr, ok: false},
		{
			name:    "blank lines are skipped",
			content: ptr("\n{\"k\":1,\"v\":\"x\"}\n\n{\"k\":2,\"v\":\"y\"}\n\n"),
			want:    []entry{{1, "x"}, {2, "y"}},
			ok:      true,
		},
		{
			name:     "torn final line is skipped with a warning",
			content:  ptr("{\"k\":1,\"v\":\"x\"}\n{\"k\":2,\"v\":\"y"),
			want:     []entry{{1, "x"}},
			warnings: []string{"line 2: skipping unparsable entry"},
			ok:       true,
		},
		{
			name:    "duplicate keys come back in file order, so the caller's last write wins",
			content: ptr("{\"k\":1,\"v\":\"old\"}\n{\"k\":2,\"v\":\"y\"}\n{\"k\":1,\"v\":\"new\"}\n"),
			want:    []entry{{1, "old"}, {2, "y"}, {1, "new"}},
			ok:      true,
		},
		{
			name:     "the validity check's reason becomes the warning",
			content:  ptr("{\"k\":-1,\"v\":\"x\"}\n{\"k\":1,\"v\":\"y\"}\n"),
			want:     []entry{{1, "y"}},
			warnings: []string{"line 1: skipping negative key"},
			ok:       true,
		},
		{
			name:    "a matching header is skipped and lines count from it",
			content: ptr("{\"run\":\"a\"}\n{\"k\":1,\"v\":\"x\"}\n{\"k\":-1,\"v\":\"x\"}\n"),
			header:  hdr,
			want:    []entry{{1, "x"}},
			// The header is line 1.
			warnings: []string{"line 3: skipping negative key"},
			ok:       true,
		},
		{
			name:     "a header mismatch returns not-ok with a warning",
			content:  ptr("{\"run\":\"b\"}\n{\"k\":1,\"v\":\"x\"}\n"),
			header:   hdr,
			warnings: []string{`header {"run":"b"} does not match run geometry {"run":"a"}`},
			ok:       false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			if tc.content != nil {
				if err := os.WriteFile(path, []byte(*tc.content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, warnings, ok, err := Read(path, tc.header, rejectNegative)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.ok {
				t.Errorf("ok = %v, want %v", ok, tc.ok)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("entries = %v, want %v", got, tc.want)
			}
			if len(warnings) != len(tc.warnings) {
				t.Fatalf("warnings = %q, want %d matching %q", warnings, len(tc.warnings), tc.warnings)
			}
			for i, w := range tc.warnings {
				if !strings.Contains(warnings[i], w) {
					t.Errorf("warning %q does not contain %q", warnings[i], w)
				}
			}
		})
	}
}

func ptr(s string) *string { return &s }

// TestCreate: without resume the journal is truncated and starts with the
// header; with resume new entries append after the old ones, on a line of
// their own even when the last run's crash tore the final line.
func TestCreate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	appendTo := func(resume bool, es ...entry) {
		t.Helper()
		w, err := Create(path, header{Run: "a"}, resume)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range es {
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	content := func() string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	appendTo(false, entry{1, "x"})
	if got, want := content(), "{\"run\":\"a\"}\n{\"k\":1,\"v\":\"x\"}\n"; got != want {
		t.Fatalf("fresh journal %q, want %q", got, want)
	}
	appendTo(true, entry{2, "y"})
	if got, want := content(), "{\"run\":\"a\"}\n{\"k\":1,\"v\":\"x\"}\n{\"k\":2,\"v\":\"y\"}\n"; got != want {
		t.Fatalf("resumed journal %q, want %q", got, want)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":3,"v":"to`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	appendTo(true, entry{4, "z"})
	got, warnings, ok, err := Read(path, header{Run: "a"}, rejectNegative)
	if err != nil || !ok {
		t.Fatalf("read after a torn resume: ok=%v err=%v", ok, err)
	}
	if want := []entry{{1, "x"}, {2, "y"}, {4, "z"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("entries after a torn resume = %v, want %v", got, want)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "line 4: skipping unparsable entry") {
		t.Fatalf("warnings after a torn resume = %q, want the torn line 4 only", warnings)
	}

	appendTo(false)
	if got, want := content(), "{\"run\":\"a\"}\n"; got != want {
		t.Fatalf("journal reopened without resume %q, want only the header %q", got, want)
	}
}

// TestConcurrentAppend: appends from many goroutines land as whole lines,
// never interleaved (run under -race).
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 25
	long := strings.Repeat("v", 4096)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append(entry{K: g*each + i, V: long}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != workers*each {
		t.Fatalf("%d lines, want %d", len(lines), workers*each)
	}
	seen := make(map[int]bool)
	for i, l := range lines {
		var e entry
		if err := json.Unmarshal(l, &e); err != nil || e.V != long {
			t.Fatalf("line %d is not a whole entry: %v", i+1, err)
		}
		seen[e.K] = true
	}
	if len(seen) != workers*each {
		t.Fatalf("%d distinct entries, want %d", len(seen), workers*each)
	}
}

// TestResumeCommand: the printed command re-runs from the module root,
// whatever binary ran it, with every argument surviving the shell.
func TestResumeCommand(t *testing.T) {
	for _, tc := range []struct {
		name, tool string
		argv       []string
		want       string
	}{
		{
			name: "the go run temp binary is dropped", tool: "odyssey-fleet",
			argv: []string{"/tmp/go-build1234/b001/exe/odyssey-fleet", "-devices", "600", "-journal", "f.jsonl"},
			want: "go run ./cmd/odyssey-fleet -devices 600 -journal f.jsonl -resume",
		},
		{
			name: "a spaced or quoted path is shell-quoted", tool: "odyssey-chaos",
			argv: []string{"odyssey-chaos", "-soak", "20", "-journal", "my runs/it's.jsonl"},
			want: `go run ./cmd/odyssey-chaos -soak 20 -journal 'my runs/it'\''s.jsonl' -resume`,
		},
		{
			name: "an existing -resume is kept, not doubled", tool: "odyssey-chaos",
			argv: []string{"./odyssey-chaos", "-journal", "j.jsonl", "-resume", "-soak", "5"},
			want: "go run ./cmd/odyssey-chaos -journal j.jsonl -resume -soak 5",
		},
		{
			name: "an empty argument survives", tool: "odyssey-chaos",
			argv: []string{"odyssey-chaos", "-out", "", "-journal", "j.jsonl"},
			want: "go run ./cmd/odyssey-chaos -out '' -journal j.jsonl -resume",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := ResumeCommand(tc.tool, tc.argv); got != tc.want {
				t.Errorf("ResumeCommand = %s\nwant             %s", got, tc.want)
			}
		})
	}
}
