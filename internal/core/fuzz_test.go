package core

// Native Go fuzzing of engine agreement: fuzz inputs decode into
// well-formed traces through internal/testutil's byte-program VM, and the
// reference Algorithm 1 engine and the Algorithm 3 engine must agree. The
// corpus is seeded with the paper's worked traces (ρ1–ρ4) and one
// injected-violation workload per tracegen -inject mode, each encoded
// losslessly into the byte format.
//
// Run long with:
//
//	go test -fuzz=FuzzDifferentialEngines ./internal/core

import (
	"testing"

	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
	"aerodrome/internal/workload"
)

// fuzzSeeds returns the corpus seeds: the paper's ρ traces and one
// injected-violation trace per tracegen -inject mode, in byte-program
// form.
func fuzzSeeds(f testing.TB) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, tr := range []*trace.Trace{
		testutil.Rho1(), testutil.Rho2(), testutil.Rho3(), testutil.Rho4(),
	} {
		enc := testutil.EncodeTrace(tr)
		if enc == nil {
			f.Fatal("paper trace does not fit the byte format")
		}
		seeds = append(seeds, enc)
	}
	for _, inj := range []workload.Violation{
		workload.ViolationCross, workload.ViolationDelayed, workload.ViolationLock,
	} {
		cfg := workload.Config{
			Name: "fuzz-seed-" + string(inj), Threads: 6, Vars: 48, Locks: 8,
			Events: 400, OpsPerTxn: 3, Pattern: workload.PatternChain,
			Inject: inj, InjectAt: 0.7, TxnFraction: 0.5, Seed: 11,
		}
		tr := trace.Collect(workload.New(cfg))
		enc := testutil.EncodeTrace(tr)
		if enc == nil {
			f.Fatalf("injected workload %s does not fit the byte format", inj)
		}
		seeds = append(seeds, enc)
	}
	// The phase-shift shape seeds a chain burst followed by a sharded
	// steady state, so mutations explore around the change of shape.
	phase := testutil.PhaseShiftTrace(testutil.PhaseShiftOpts{
		Threads: 5, BurstRounds: 4, SteadyRounds: 12, OpsPerTxn: 3,
	})
	enc := testutil.EncodeTrace(phase)
	if enc == nil {
		f.Fatal("phase-shift trace does not fit the byte format")
	}
	seeds = append(seeds, enc)
	// The scenario-zoo shapes (PR 7) seed their distinctive structures —
	// cross-group hand-offs, wide barrier joins, hot-lock convoys and
	// fresh-variable churn — so mutations explore around each.
	for _, shape := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"producer-consumer", testutil.ProducerConsumerTrace(testutil.ProducerConsumerOpts{
			Producers: 2, Consumers: 2, Rounds: 40, Slots: 4,
		})},
		{"barrier-phases", testutil.BarrierPhasesTrace(testutil.BarrierOpts{
			Threads: 6, Phases: 8, OpsPerTxn: 2,
		})},
		{"lock-convoy", testutil.LockConvoyTrace(testutil.LockConvoyOpts{
			Threads: 6, Rounds: 40, Nested: true,
		})},
		{"quota-thrash", testutil.QuotaThrashTrace(testutil.QuotaThrashOpts{
			Threads: 5, Bursts: 20, TxnsPerBurst: 3,
		})},
	} {
		enc := testutil.EncodeTrace(shape.tr)
		if enc == nil {
			f.Fatalf("%s trace does not fit the byte format", shape.name)
		}
		seeds = append(seeds, enc)
	}
	return seeds
}

// FuzzDifferentialEngines decodes fuzz bytes into a well-formed trace and
// fails on any divergence between the Basic reference and the optimized
// engine: they must agree on the verdict, with the optimized detection
// point earlier or equal — laziness never reports later.
func FuzzDifferentialEngines(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := testutil.TraceFromBytes(data)
		assertBasicAgreement(t, "fuzz", func() trace.Source { return tr.Cursor() })
	})
}
