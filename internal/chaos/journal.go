package chaos

import (
	"errors"
	"fmt"
)

// The soak journal (package journal): one headerless line per scenario,
// written as the scenario finishes its full treatment (run, audit, shrink,
// save). Every field the final report needs is in the entry, so a resumed
// soak's report is byte-identical to an uninterrupted one.
//
// Entries are content-addressed: each carries the scenario id its index
// mapped to, and resume ignores entries whose id no longer matches (a
// journal reused across a seed or corpus change poisons nothing).

// journalEntry is one completed scenario's outcome.
type journalEntry struct {
	I  int             `json:"i"`  // scenario index within the soak
	ID string          `json:"id"` // content address of the scenario at index I
	OK bool            `json:"ok"` // every sentinel passed
	F  *journalFailure `json:"failure,omitempty"`
}

// journalFailure carries everything Failure holds, in serializable form.
type journalFailure struct {
	Scenario   Scenario      `json:"scenario"`
	Report     Report        `json:"report"`
	Err        string        `json:"err,omitempty"`
	Shrunk     *ShrinkResult `json:"shrunk,omitempty"`
	Path       string        `json:"path,omitempty"`
	ShrunkPath string        `json:"shrunk_path,omitempty"`
	Repro      string        `json:"repro,omitempty"`
}

// failure reconstructs the in-memory Failure the entry was written from.
func (e *journalEntry) failure() Failure {
	f := Failure{
		Scenario:   e.F.Scenario,
		Report:     e.F.Report,
		Shrunk:     e.F.Shrunk,
		Path:       e.F.Path,
		ShrunkPath: e.F.ShrunkPath,
		Repro:      e.F.Repro,
	}
	if e.F.Err != "" {
		f.Err = errors.New(e.F.Err)
	}
	return f
}

// replayable returns the resume reader's validity check for a soak of
// count scenarios: a failed entry must carry its failure record, and the
// entry's index must fall inside the soak and still map to the scenario id
// it recorded.
func replayable(count int, scenario func(int) Scenario) func(journalEntry) string {
	return func(e journalEntry) string {
		switch {
		case !e.OK && e.F == nil:
			return "failed entry with no failure record"
		case e.I < 0 || e.I >= count:
			return fmt.Sprintf("entry %d outside the soak", e.I)
		}
		if id := scenario(e.I).ID(); id != e.ID {
			return fmt.Sprintf("entry %d recorded scenario %s, soak has %s; re-running it", e.I, e.ID, id)
		}
		return ""
	}
}
