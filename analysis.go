package aerodrome

import (
	"fmt"
	"strings"

	"aerodrome/internal/core"
	"aerodrome/internal/pipeline"
	"aerodrome/internal/race"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/trace"
)

// AnalysisKind names one analysis that can run over an ingested trace.
// The service's clock substrate computes the happens-before state every
// vector-clock analysis needs, so one parse and one event stream can
// drive several verdicts at once ("one parse, one clock substrate, N
// verdicts", ROADMAP item 4).
type AnalysisKind string

const (
	// AnalysisAtomicity is conflict-serializability checking — the
	// AeroDrome algorithms selected by Algorithm. It is the default
	// analysis and the one reported by the legacy top-level Report and
	// SessionView fields.
	AnalysisAtomicity AnalysisKind = "atomicity"
	// AnalysisHBRace is FastTrack-style happens-before data-race
	// detection (internal/race) on the same event stream.
	AnalysisHBRace AnalysisKind = "hbrace"
)

// AnalysisKinds lists all supported analyses.
func AnalysisKinds() []AnalysisKind {
	return []AnalysisKind{AnalysisAtomicity, AnalysisHBRace}
}

// validAnalysisNames renders the supported set for error messages.
func validAnalysisNames() string {
	names := make([]string, 0, len(AnalysisKinds()))
	for _, k := range AnalysisKinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, ", ")
}

// ParseAnalyses parses a comma-separated analysis list ("atomicity,hbrace")
// into a validated, deduplicated set preserving first-mention order. The
// empty string (and an empty list) selects the default set, just
// ["atomicity"]. Unknown names are rejected with the valid set listed.
func ParseAnalyses(s string) ([]AnalysisKind, error) {
	if strings.TrimSpace(s) == "" {
		return []AnalysisKind{AnalysisAtomicity}, nil
	}
	var set []AnalysisKind
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		set = append(set, AnalysisKind(name))
	}
	return normalizeAnalyses(set)
}

// normalizeAnalyses validates and deduplicates an analysis set, preserving
// first-mention order. An empty set selects the default ["atomicity"].
func normalizeAnalyses(set []AnalysisKind) ([]AnalysisKind, error) {
	if len(set) == 0 {
		return []AnalysisKind{AnalysisAtomicity}, nil
	}
	seen := make(map[AnalysisKind]bool, len(set))
	out := make([]AnalysisKind, 0, len(set))
	for _, k := range set {
		switch k {
		case AnalysisAtomicity, AnalysisHBRace:
		default:
			return nil, fmt.Errorf("aerodrome: unknown analysis %q (valid: %s)", k, validAnalysisNames())
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out, nil
}

// defaultAnalysisSet reports whether set is exactly the default
// ["atomicity"] — the case whose report and session wire formats must stay
// byte-identical to the single-analysis service.
func defaultAnalysisSet(set []AnalysisKind) bool {
	return len(set) == 1 && set[0] == AnalysisAtomicity
}

// AnalysisReport is one analysis' verdict within a multi-analysis Report
// or session view. The atomicity entry mirrors the legacy top-level
// fields exactly: same violation, same event count, same algorithm name.
type AnalysisReport struct {
	// Analysis names the analysis ("atomicity", "hbrace").
	Analysis string `json:"analysis"`
	// Clean is true iff the analysis found no violation: serializable for
	// atomicity, race-free for hbrace.
	Clean bool `json:"clean"`
	// Violation is non-nil iff not clean.
	Violation *Violation `json:"violation,omitempty"`
	// Events is the number of events this analysis consumed (each
	// analysis stops at its own first violation).
	Events int64 `json:"events"`
	// Algorithm names the engine or detector used.
	Algorithm string `json:"algorithm"`
}

// analysisSink is a non-atomicity analysis running over the shared event
// stream: a pipeline.Sink that can render its verdict as an
// AnalysisReport.
type analysisSink interface {
	pipeline.Sink
	analysisReport() AnalysisReport
}

// checkRun is what one Options value runs: the atomicity engine plus one
// sink per extra analysis, in set order. newCheckRun is the one place
// every checking entry point turns Options into them.
type checkRun struct {
	eng    core.Engine
	set    []AnalysisKind
	extras []analysisSink
}

func newCheckRun(o Options) (checkRun, error) {
	set, err := normalizeAnalyses(o.Analyses)
	if err != nil {
		return checkRun{}, err
	}
	mk, err := engineFor(o.Algorithm)
	if err != nil {
		return checkRun{}, err
	}
	run := checkRun{eng: mk(), set: set}
	for _, k := range set {
		if k == AnalysisHBRace {
			run.extras = append(run.extras, &raceSink{d: race.New()})
		}
	}
	return run, nil
}

// sinks upcasts the extra analyses to the pipeline's Sink interface.
func (c checkRun) sinks() []pipeline.Sink {
	if len(c.extras) == 0 {
		return nil
	}
	out := make([]pipeline.Sink, len(c.extras))
	for i, s := range c.extras {
		out[i] = s
	}
	return out
}

// done reports whether every extra analysis has latched.
func (c checkRun) done() bool {
	for _, s := range c.extras {
		if !s.Done() {
			return false
		}
	}
	return true
}

// analyses assembles per-analysis reports in set order around the given
// atomicity entry.
func (c checkRun) analyses(atomicity AnalysisReport) []AnalysisReport {
	out := make([]AnalysisReport, 0, len(c.set))
	next := 0
	for _, k := range c.set {
		if k == AnalysisAtomicity {
			out = append(out, atomicity)
			continue
		}
		out = append(out, c.extras[next].analysisReport())
		next++
	}
	return out
}

// report renders a finished check. Per-analysis entries are attached only
// for a non-default set, so the default report keeps the single-analysis
// wire format.
func (c checkRun) report(v *Violation, events int64) *Report {
	rep := &Report{
		Serializable: v == nil,
		Violation:    v,
		Events:       events,
		Algorithm:    c.eng.Name(),
	}
	if !defaultAnalysisSet(c.set) {
		rep.Analyses = c.analyses(atomicityReport(v, events, rep.Algorithm))
	}
	return rep
}

// atomicityReport renders the atomicity verdict as an AnalysisReport; it
// mirrors the report's legacy top-level fields.
func atomicityReport(v *Violation, events int64, algorithm string) AnalysisReport {
	return AnalysisReport{
		Analysis:  string(AnalysisAtomicity),
		Clean:     v == nil,
		Violation: v,
		Events:    events,
		Algorithm: algorithm,
	}
}

// raceSink adapts the happens-before race detector to the analysis-sink
// surface.
type raceSink struct {
	d *race.Detector
}

func (s *raceSink) Process(e trace.Event) { s.d.Process(e) }
func (s *raceSink) Done() bool            { return s.d.Violation() != nil }

func (s *raceSink) analysisReport() AnalysisReport {
	v := s.d.Violation()
	return AnalysisReport{
		Analysis:  string(AnalysisHBRace),
		Clean:     v == nil,
		Violation: raceFromInternal(v),
		Events:    s.d.Processed(),
		Algorithm: s.d.Name(),
	}
}

// raceFromInternal maps a race violation onto the public wire Violation.
func raceFromInternal(v *race.Violation) *Violation {
	if v == nil {
		return nil
	}
	target := int(v.Var)
	other := int(v.Other)
	return &Violation{
		EventIndex:  v.Index,
		Thread:      int(v.Thread),
		Check:       v.Check.String(),
		Algorithm:   v.Algorithm,
		Target:      &target,
		OtherThread: &other,
	}
}

// runSequential drives the run over one sequential event stream, stopping
// as soon as every analysis has latched (so a parse error in the discarded
// tail is never observed) or the stream ends.
func runSequential(run checkRun, rd *rapidio.Decoder) (*core.Violation, int64, error) {
	var viol *core.Violation
	for viol == nil || !run.done() {
		e, ok := rd.Next()
		if !ok {
			if err := rd.Err(); err != nil {
				return nil, 0, err
			}
			break
		}
		if viol == nil {
			viol = run.eng.Process(e)
		}
		for _, s := range run.extras {
			if !s.Done() {
				s.Process(e)
			}
		}
	}
	if viol == nil {
		viol = run.eng.Violation()
	}
	return viol, run.eng.Processed(), nil
}
