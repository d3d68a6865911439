// Package journal is the crash-safe run journal shared by the chaos soak and
// the fleet runner, and the interrupt/resume protocol of their CLIs.
//
// A journal is a JSON-lines file: an optional header line pinning what the
// run is, then one line per completed unit of work (a soak scenario, a
// fleet shard), appended and fsync'd before the work counts as done. A run
// killed mid-flight therefore leaves only whole entries, plus at worst one
// torn final line — the write the crash interrupted — which the reader
// skips with a warning. Resuming replays the entries to skip finished work;
// the caller keeps the last entry per key, since a resumed run only ever
// appends.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Writer appends entries to a journal, one fsync'd JSON line each. It is
// safe for concurrent use.
type Writer struct {
	mu sync.Mutex
	f  *os.File
}

// Create opens the journal at path. When resuming, new entries append after
// the existing ones; a torn final line is ended first, so the reader skips
// only it and not the entry after it. Otherwise the file is truncated and
// header, when non-nil, is written as its first line.
func Create(path string, header any, resume bool) (*Writer, error) {
	flags := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f}
	if resume {
		var st os.FileInfo
		last := []byte{'\n'}
		if st, err = f.Stat(); err == nil && st.Size() > 0 {
			_, err = f.ReadAt(last, st.Size()-1)
		}
		if err == nil && last[0] != '\n' {
			_, err = f.WriteString("\n")
		}
	} else if header != nil {
		err = w.Append(header)
	}
	if err != nil {
		_ = f.Close() // the open failed; the caller sees err
		return nil, err
	}
	return w, nil
}

// Append writes v as one JSON line and fsyncs it: when Append returns nil
// the entry is durable.
func (w *Writer) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close closes the journal; every entry was fsync'd as it landed.
func (w *Writer) Close() error { return w.f.Close() }

// Read loads the entries of the journal at path in file order. A missing
// journal is an empty one. Blank lines are skipped; an undecodable line
// (normally a crash's torn final line) or an entry valid rejects is skipped
// with a warning. valid, which may be nil, returns the reason or "".
//
// With a non-nil header the first line must be header's JSON encoding.
// When it is not, or the journal is missing or empty, ok is false and no
// entries return: the journal belongs to another run, or to none, so the
// caller starts it over. Without a header ok is true.
func Read[E any](path string, header any, valid func(E) string) (entries []E, warnings []string, ok bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil, header == nil, nil
	}
	if err != nil {
		return nil, nil, false, err
	}
	defer func() { _ = f.Close() }() // read-only; nothing to flush
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20) // far above the largest entry, a fleet shard aggregate
	line := 0
	if header != nil {
		want, err := json.Marshal(header)
		if err != nil || !sc.Scan() {
			return nil, nil, false, errors.Join(err, sc.Err())
		}
		line++
		if got := sc.Bytes(); !bytes.Equal(got, want) {
			return nil, []string{fmt.Sprintf("journal %s: header %s does not match run geometry %s; starting the journal over",
				path, got, want)}, false, nil
		}
	}
	for sc.Scan() {
		line++
		var e E
		var reason string
		switch err := json.Unmarshal(sc.Bytes(), &e); {
		case len(sc.Bytes()) == 0:
			continue
		case err != nil:
			reason = "unparsable entry: " + err.Error()
		case valid != nil:
			reason = valid(e)
		}
		if reason != "" {
			warnings = append(warnings, fmt.Sprintf("journal %s line %d: skipping %s", path, line, reason))
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, warnings, false, err
	}
	return entries, warnings, true, nil
}

// TrapInterrupt installs the SIGINT handler and returns the run's Stop
// poll. The first interrupt requests a graceful stop: unstarted work is
// skipped while the in-flight work (what, e.g. "shards") finishes and
// journals. The handler then detaches, so a second interrupt kills the
// process outright.
func TrapInterrupt(what string) func() bool {
	var stopped atomic.Bool
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	go func() {
		<-ch
		stopped.Store(true)
		fmt.Fprintf(os.Stderr, "interrupt: finishing in-flight %s and flushing the journal (^C again to kill)\n", what)
		signal.Stop(ch)
	}()
	return stopped.Load
}

// ResumeCommand returns the command that continues an interrupted run of
// ./cmd/<tool> invoked as argv (os.Args): its arguments, plus -resume when
// they lack it. argv[0] is dropped: under `go run` it names a temporary
// binary that is gone once the run exits.
func ResumeCommand(tool string, argv []string) string {
	args := argv[1:]
	if !slices.Contains(args, "-resume") && !slices.Contains(args, "--resume") {
		args = append(args[:len(args):len(args)], "-resume")
	}
	return Command(tool, args...)
}

// Command renders `go run ./cmd/<tool>` with args as one shell line, each
// argument quoted where a shell would split or expand it.
func Command(tool string, args ...string) string {
	line := "go run ./cmd/" + tool
	for _, a := range args {
		if a == "" || strings.Trim(a, shellSafe) != "" {
			a = "'" + strings.ReplaceAll(a, "'", `'\''`) + "'"
		}
		line += " " + a
	}
	return line
}

// shellSafe lists the bytes no POSIX shell treats specially.
const shellSafe = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_./:=,+@%"
