package main

// Inputs: every trace a workload sends is generated from the seed, so the
// same seed gives byte-identical inputs, and its sha256 is printed. For
// seed 1 the fingerprints must match the recorded ones (see scale.go): a
// change to the trace generator or the STD writer cannot silently change
// what the benchmark measures.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
)

// input is one rendered trace with its reference verdicts.
type input struct {
	data   []byte
	hbrace bool     // the request asks for atomicity and hbrace
	ref    verdict  // atomicity, from Velodrome
	race   *verdict // hbrace, from the naive oracle (hbrace inputs only)
}

// shapes are the trace shapes of the serve and stream pools.
var shapes = []string{"prodcons", "barrier", "convoy", "sharded"}

var injections = []string{"cross", "delayed", "lock"}

// structureSeed fixes a pool's make-up — each trace's size, shape, width,
// injected violation and analysis set — for every run. The run seed only
// varies the generated content, so every seed offers the same kind and
// amount of work and seeds can be compared with each other.
const structureSeed = 20261016

// makePool draws the make-up of a pool of traces, count[i] of size sizes[i];
// round(violFrac*n) of them carry an injected violation and
// round(hbFrac*n) ask for the hbrace analysis too. seed varies only the
// generated content.
func makePool(seed int64, sizes []int64, counts []int, violFrac, hbFrac float64) ([]traceSpec, []bool) {
	rng := rand.New(rand.NewSource(structureSeed))
	var specs []traceSpec
	for i, c := range counts {
		for j := 0; j < c; j++ {
			specs = append(specs, traceSpec{Events: sizes[i]})
		}
	}
	n := len(specs)
	viol := map[int]bool{}
	for _, i := range rng.Perm(n)[:int(violFrac*float64(n)+0.5)] {
		viol[i] = true
	}
	hbrace := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(hbFrac*float64(n)+0.5)] {
		hbrace[i] = true
	}
	content := rand.New(rand.NewSource(seed))
	for i := range specs {
		s := &specs[i]
		s.Pattern = shapes[rng.Intn(len(shapes))]
		s.Threads = 6 + rng.Intn(27)
		s.Vars = 64 + rng.Intn(961)
		s.Locks = 4 + rng.Intn(13)
		s.TxnFraction = 0.5
		s.Inject, s.InjectAt = "none", 0.9
		if viol[i] {
			s.Inject = injections[rng.Intn(len(injections))]
			s.InjectAt = 0.2 + 0.75*rng.Float64()
		}
		s.Seed = content.Int63()
	}
	return specs, hbrace
}

// renderAll renders a pool.
func renderAll(specs []traceSpec, hbrace []bool) ([]*input, error) {
	out := make([]*input, len(specs))
	for i, s := range specs {
		data, err := render(s)
		if err != nil {
			return nil, err
		}
		out[i] = &input{data: data, hbrace: hbrace[i]}
	}
	return out, nil
}

// fingerprint hashes a workload's inputs, in order, with their flags.
func fingerprint(ins []*input) string {
	h := sha256.New()
	for _, in := range ins {
		fmt.Fprintf(h, "%d %v\n", len(in.data), in.hbrace)
		h.Write(in.data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinInputs records the workload's input fingerprint and, for seed 1,
// refuses inputs that differ from the recorded ones.
func pinInputs(e *env, res *result, ins []*input) error {
	res.Fingerprint = fingerprint(ins)
	if want, ok := e.scale.fingerprints[res.Workload]; ok && e.seed == 1 && want != res.Fingerprint {
		return fmt.Errorf("seed-1 inputs changed: sha256 %s, recorded %s; the generator or the STD writer changed what this workload measures", res.Fingerprint, want)
	}
	return nil
}

// writeInputs stores inputs as files for the CLI, under .bench_build.
func writeInputs(e *env, workload string, ins []*input) ([]string, error) {
	dir := filepath.Join(e.dir, "inputs", workload)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, len(ins))
	for i, in := range ins {
		paths[i] = filepath.Join(dir, strconv.Itoa(i)+".std")
		if err := os.WriteFile(paths[i], in.data, 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// references computes every input's reference verdicts, untimed: Velodrome
// through the CLI for atomicity (one process checking all files), the
// naive oracle for the hbrace inputs. The smoke test's corruption hook
// flips the first atomicity verdict.
func references(e *env, workload string, ins []*input) error {
	paths, err := writeInputs(e, workload, ins)
	if err != nil {
		return err
	}
	args := append([]string{"-algo", "velodrome", "-parallel", "2"}, paths...)
	res, err := runCLI(e.cli, args...)
	if err != nil {
		return fmt.Errorf("reference check: %w", err)
	}
	refs, err := parseParallel(res.stdout, paths)
	if err != nil {
		return err
	}
	for i, in := range ins {
		in.ref = refs[i]
		if in.hbrace {
			v, err := raceReference(in.data)
			if err != nil {
				return err
			}
			in.race = &v
		}
	}
	if e.hooks.corruptReference {
		r := &ins[0].ref
		r.Clean, r.Index, r.Check = !r.Clean, r.Events-1, "corrupted"
	}
	return nil
}
