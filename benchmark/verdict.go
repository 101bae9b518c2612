package main

// Verdict pinning. Every answer a surface gives is compared with a
// reference computed once at set-up, untimed, by an independent
// algorithm: the Velodrome transaction-graph checker (`aerodrome -algo
// velodrome`) for atomicity, the naive happens-before oracle for hbrace.
// Any disagreement voids the run.

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// verdict is one analysis' outcome on one trace.
type verdict struct {
	Clean  bool
	Events int64
	// The violation, when not clean.
	Index  int64
	Check  string
	Thread int
	// hbrace only: the raced variable and the earlier access's thread.
	Target, Other int
}

func (v verdict) String() string {
	if v.Clean {
		return fmt.Sprintf("clean after %d events", v.Events)
	}
	return fmt.Sprintf("violation at event %d (%s, thread %d, target %d, other %d) after %d events",
		v.Index, v.Check, v.Thread, v.Target, v.Other, v.Events)
}

// mismatch is a wrong answer from the system under test.
type mismatch struct{ what string }

func (m *mismatch) Error() string { return "verdict mismatch: " + m.what }

func wrong(format string, args ...any) *mismatch {
	return &mismatch{fmt.Sprintf(format, args...)}
}

var (
	// core.Violation as the local CLI prints it.
	localViolRe = regexp.MustCompile(`violation at event (\d+) \(.*\): (\S+) check against thread t(\d+)'s active transaction$`)
	// The public Violation as `aerodrome -parallel` prints it.
	publicViolRe = regexp.MustCompile(`violation at event (\d+) \((\S+) check, thread (\d+)\)$`)
	cleanLineRe  = regexp.MustCompile(`^conflict serializable \((\d+) events, `)
)

// cliRun is what one local `aerodrome` check printed.
type cliRun struct {
	algorithm string
	verdict   verdict
}

// parseCLI reads the output of a local `aerodrome [trace]` check and
// cross-checks it against the exit code.
func parseCLI(stdout string, exit int) (cliRun, error) {
	var out cliRun
	var result string
	haveEvents := false
	for _, line := range strings.Split(stdout, "\n") {
		switch {
		case strings.HasPrefix(line, "algorithm:"):
			out.algorithm = strings.TrimSpace(strings.TrimPrefix(line, "algorithm:"))
		case strings.HasPrefix(line, "events:"):
			n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "events:")), 10, 64)
			if err != nil {
				return out, fmt.Errorf("bad events line %q", line)
			}
			out.verdict.Events, haveEvents = n, true
		case strings.HasPrefix(line, "result: "):
			result = strings.TrimPrefix(line, "result: ")
		}
	}
	if out.algorithm == "" || !haveEvents || result == "" {
		return out, fmt.Errorf("unrecognized CLI output (exit %d): %q", exit, stdout)
	}
	if strings.HasPrefix(result, "conflict serializable") {
		out.verdict.Clean = true
		if exit != 0 {
			return out, fmt.Errorf("clean verdict with exit code %d", exit)
		}
		return out, nil
	}
	m := localViolRe.FindStringSubmatch(result)
	if m == nil {
		return out, fmt.Errorf("unrecognized result line %q", result)
	}
	if exit != 1 {
		return out, fmt.Errorf("violation with exit code %d", exit)
	}
	out.verdict.Index, _ = strconv.ParseInt(m[1], 10, 64)
	out.verdict.Check = m[2]
	out.verdict.Thread, _ = strconv.Atoi(m[3])
	return out, nil
}

// parseParallel reads `aerodrome -parallel N f1 f2 ...` output into one
// verdict per file, in argument order. A violation's event count is its
// index plus one: every checker stops at the violating event.
func parseParallel(stdout string, files []string) ([]verdict, error) {
	byPath := map[string]verdict{}
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		path, rest, ok := strings.Cut(line, ": ")
		if !ok {
			return nil, fmt.Errorf("unrecognized reference line %q", line)
		}
		var v verdict
		if m := cleanLineRe.FindStringSubmatch(rest); m != nil {
			v.Clean = true
			v.Events, _ = strconv.ParseInt(m[1], 10, 64)
		} else if m := publicViolRe.FindStringSubmatch(rest); m != nil {
			v.Index, _ = strconv.ParseInt(m[1], 10, 64)
			v.Check = m[2]
			v.Thread, _ = strconv.Atoi(m[3])
			v.Events = v.Index + 1
		} else {
			return nil, fmt.Errorf("reference check failed: %q", line)
		}
		byPath[path] = v
	}
	out := make([]verdict, len(files))
	for i, f := range files {
		v, ok := byPath[f]
		if !ok {
			return nil, fmt.Errorf("no reference verdict for %s", f)
		}
		out[i] = v
	}
	return out, nil
}

// sameAtomicity compares a surface's atomicity answer with the reference.
func sameAtomicity(where string, got, want verdict) error {
	if got.Clean != want.Clean || got.Events != want.Events ||
		(!want.Clean && (got.Index != want.Index || got.Check != want.Check || got.Thread != want.Thread)) {
		return wrong("%s: got %v, reference %v", where, got, want)
	}
	return nil
}

// sameRace compares an hbrace answer with the naive oracle's.
func sameRace(where string, got, want verdict) error {
	if got != want {
		return wrong("%s: hbrace got %v, reference %v", where, got, want)
	}
	return nil
}

// Wire shapes of the aerodromed reports, decoded independently of the
// server package.
type wireViolation struct {
	EventIndex  int64  `json:"event_index"`
	Thread      int    `json:"thread"`
	Check       string `json:"check"`
	Target      *int   `json:"target"`
	OtherThread *int   `json:"other_thread"`
}

type wireAnalysis struct {
	Analysis  string         `json:"analysis"`
	Clean     bool           `json:"clean"`
	Violation *wireViolation `json:"violation"`
	Events    int64          `json:"events"`
	Algorithm string         `json:"algorithm"`
}

type wireReport struct {
	Serializable bool           `json:"serializable"`
	Violation    *wireViolation `json:"violation"`
	Events       int64          `json:"events"`
	Algorithm    string         `json:"algorithm"`
	Analyses     []wireAnalysis `json:"analyses"`
	State        string         `json:"state"` // session views only
}

func wireVerdict(clean bool, v *wireViolation, events int64) verdict {
	out := verdict{Clean: clean, Events: events}
	if v != nil {
		out.Index, out.Check, out.Thread = v.EventIndex, v.Check, v.Thread
		if v.Target != nil {
			out.Target = *v.Target
		}
		if v.OtherThread != nil {
			out.Other = *v.OtherThread
		}
	}
	return out
}

// checkReport pins one HTTP report: the top-level atomicity fields always,
// and the per-analysis entries exactly when hbrace was requested (the
// default analysis set must keep the legacy wire format, with no entries).
func checkReport(where string, rep wireReport, atom verdict, hb *verdict) error {
	top := wireVerdict(rep.Serializable, rep.Violation, rep.Events)
	if err := sameAtomicity(where, top, atom); err != nil {
		return err
	}
	if hb == nil {
		if len(rep.Analyses) != 0 {
			return wrong("%s: default analysis set answered with %d analysis entries", where, len(rep.Analyses))
		}
		return nil
	}
	if len(rep.Analyses) != 2 || rep.Analyses[0].Analysis != "atomicity" || rep.Analyses[1].Analysis != "hbrace" {
		return wrong("%s: want atomicity and hbrace entries, got %+v", where, rep.Analyses)
	}
	a := rep.Analyses[0]
	if err := sameAtomicity(where+" atomicity entry", wireVerdict(a.Clean, a.Violation, a.Events), atom); err != nil {
		return err
	}
	h := rep.Analyses[1]
	return sameRace(where, wireVerdict(h.Clean, h.Violation, h.Events), *hb)
}
