package workload

// This file encodes the paper's evaluation rows (Tables 1 and 2) as
// workload configurations. Per-row thread counts and (where feasible) lock
// counts match the paper's columns; event and variable counts are scaled
// down by the harness cap, because the originals (up to 2.8B events / 181M
// variables) come from hours-long RoadRunner logs. The *dynamics* of each
// row — transaction retention in Velodrome's graph, absorption frequency,
// violation position, verdict — are what the configurations preserve.
// TestRowVerdictsMatchPaper pins each row's verdict to the paper's.

// PaperRow pairs a workload configuration with the paper's reported
// numbers, so the harness can print paper-vs-measured tables.
type PaperRow struct {
	Config Config
	// Paper columns (Table 1/2 of the paper).
	PaperEvents  string
	PaperTxns    string
	PaperAtomic  bool // true = ✓ (no violation)
	PaperVelo    string
	PaperAero    string
	PaperSpeedup string
	// Table is 1 or 2.
	Table int
}

// cap limits v to the harness event budget while keeping small traces at
// their natural size.
func capEvents(v, budget int64) int64 {
	if v < budget {
		return v
	}
	return budget
}

func capInt(v, hi int) int {
	if v < hi {
		return v
	}
	return hi
}

// Table1 returns the 14 rows of the paper's Table 1 (atomicity
// specifications from DoubleChecker), scaled to at most maxEvents events
// and maxVars variables per row.
func Table1(maxEvents int64, maxVars int) []PaperRow {
	if maxEvents <= 0 {
		maxEvents = 2_000_000
	}
	if maxVars <= 0 {
		maxVars = 20_000
	}
	rows := []PaperRow{
		{
			Config: Config{
				Name: "avrora", Threads: 7, Locks: 7,
				Vars: maxVars, Events: capEvents(2_400_000_000, maxEvents),
				OpsPerTxn: 4, Pattern: PatternHub, Inject: ViolationCross,
				InjectAt: 0.55, AbsorbEvery: 4, Seed: 101,
			},
			PaperEvents: "2.4B", PaperTxns: "498M", PaperAtomic: false,
			PaperVelo: "TO", PaperAero: "1.5", PaperSpeedup: ">24000", Table: 1,
		},
		{
			Config: Config{
				Name: "elevator", Threads: 5, Locks: 50,
				Vars: 725, Events: capEvents(280_000, maxEvents),
				OpsPerTxn: 6, Pattern: PatternHub, Inject: ViolationNone,
				AbsorbEvery: 24, Seed: 102,
			},
			PaperEvents: "280K", PaperTxns: "22.6K", PaperAtomic: true,
			PaperVelo: "162", PaperAero: "1.7", PaperSpeedup: "97", Table: 1,
		},
		{
			Config: Config{
				Name: "hedc", Threads: 7, Locks: 13,
				Vars: 1694, Events: capEvents(9_800, maxEvents),
				OpsPerTxn: 5, Pattern: PatternChain, Inject: ViolationCross,
				InjectAt: 0.85, Seed: 103,
			},
			PaperEvents: "9.8K", PaperTxns: "84", PaperAtomic: false,
			PaperVelo: "0.07", PaperAero: "0.06", PaperSpeedup: "1.16", Table: 1,
		},
		{
			Config: Config{
				Name: "luindex", Threads: 3, Locks: 65,
				Vars: maxVars, Events: capEvents(570_000_000, maxEvents),
				OpsPerTxn: 4, Pattern: PatternChain, Inject: ViolationCross,
				InjectAt: 0.9, Seed: 104,
			},
			PaperEvents: "570M", PaperTxns: "86M", PaperAtomic: false,
			PaperVelo: "581", PaperAero: "674", PaperSpeedup: "0.86", Table: 1,
		},
		{
			Config: Config{
				Name: "lusearch", Threads: 14, Locks: 772,
				Vars: maxVars, Events: capEvents(2_000_000_000, maxEvents),
				OpsPerTxn: 4, Pattern: PatternHub, Inject: ViolationCross,
				InjectAt: 0.55, AbsorbEvery: 4, Seed: 105,
			},
			PaperEvents: "2.0B", PaperTxns: "306M", PaperAtomic: false,
			PaperVelo: "TO", PaperAero: "5.5", PaperSpeedup: ">6545", Table: 1,
		},
		{
			Config: Config{
				Name: "moldyn", Threads: 4, Locks: 1,
				Vars: maxVars, Events: capEvents(1_700_000_000, maxEvents),
				OpsPerTxn: 48, Pattern: PatternHub, Inject: ViolationDelayed,
				InjectAt: 0.7, AbsorbEvery: 4, Seed: 106,
			},
			PaperEvents: "1.7B", PaperTxns: "1.4M", PaperAtomic: false,
			PaperVelo: "TO", PaperAero: "54.9", PaperSpeedup: ">650", Table: 1,
		},
		{
			Config: Config{
				Name: "montecarlo", Threads: 4, Locks: 1,
				Vars: maxVars, Events: capEvents(494_000_000, maxEvents),
				OpsPerTxn: 16, Pattern: PatternHub, Inject: ViolationDelayed,
				InjectAt: 0.4, AbsorbEvery: 4, Seed: 107,
			},
			PaperEvents: "494M", PaperTxns: "812K", PaperAtomic: false,
			PaperVelo: "TO", PaperAero: "0.75", PaperSpeedup: ">48000", Table: 1,
		},
		{
			Config: Config{
				Name: "philo", Threads: 6, Locks: 1,
				Vars: 24, Events: capEvents(613, maxEvents),
				OpsPerTxn: 3, Pattern: PatternSharded, TxnFraction: 0,
				Inject: ViolationNone, Seed: 108,
			},
			PaperEvents: "613", PaperTxns: "0", PaperAtomic: true,
			PaperVelo: "0.02", PaperAero: "0.02", PaperSpeedup: "1", Table: 1,
		},
		{
			Config: Config{
				Name: "pmd", Threads: 13, Locks: 223,
				Vars: maxVars, Events: capEvents(367_000_000, maxEvents),
				OpsPerTxn: 4, Pattern: PatternChain, Inject: ViolationCross,
				InjectAt: 0.6, Seed: 109,
			},
			PaperEvents: "367M", PaperTxns: "81M", PaperAtomic: false,
			PaperVelo: "3.1", PaperAero: "3.8", PaperSpeedup: "0.82", Table: 1,
		},
		{
			Config: Config{
				Name: "raytracer", Threads: 4, Locks: 1,
				Vars: maxVars, Events: capEvents(2_800_000_000, maxEvents),
				OpsPerTxn: 8, Pattern: PatternHub, Inject: ViolationNone,
				AbsorbEvery: 8, Seed: 110,
			},
			PaperEvents: "2.8B", PaperTxns: "277M", PaperAtomic: true,
			PaperVelo: "TO", PaperAero: "55m40s", PaperSpeedup: ">10.7", Table: 1,
		},
		{
			Config: Config{
				Name: "sor", Threads: 4, Locks: 2,
				Vars: capInt(10_000, maxVars), Events: capEvents(608_000_000, maxEvents),
				OpsPerTxn: 64, Pattern: PatternChain, Inject: ViolationCross,
				InjectAt: 0.9, Seed: 111,
			},
			PaperEvents: "608M", PaperTxns: "637K", PaperAtomic: false,
			PaperVelo: "6.9", PaperAero: "9.6", PaperSpeedup: "0.72", Table: 1,
		},
		{
			Config: Config{
				Name: "sunflow", Threads: 16, Locks: 9,
				Vars: maxVars, Events: capEvents(16_800_000, maxEvents),
				OpsPerTxn: 4, Pattern: PatternHub, Inject: ViolationCross,
				InjectAt: 0.35, AbsorbEvery: 16, Seed: 112,
			},
			PaperEvents: "16.8M", PaperTxns: "2.5M", PaperAtomic: false,
			PaperVelo: "67.9", PaperAero: "0.65", PaperSpeedup: "104.5", Table: 1,
		},
		{
			Config: Config{
				Name: "tsp", Threads: 9, Locks: 2,
				Vars: maxVars, Events: capEvents(312_000_000, maxEvents),
				OpsPerTxn: 6, Pattern: PatternSharded, TxnFraction: 0.00002,
				Inject: ViolationCross, InjectAt: 0.85, Seed: 113,
			},
			PaperEvents: "312M", PaperTxns: "9", PaperAtomic: false,
			PaperVelo: "4.2", PaperAero: "5.7", PaperSpeedup: "0.73", Table: 1,
		},
		{
			Config: Config{
				Name: "xalan", Threads: 13, Locks: 1000,
				Vars: maxVars, Events: capEvents(1_000_000_000, maxEvents),
				OpsPerTxn: 4, Pattern: PatternChain, Inject: ViolationCross,
				InjectAt: 0.6, Seed: 114,
			},
			PaperEvents: "1.0B", PaperTxns: "214M", PaperAtomic: false,
			PaperVelo: "1.6", PaperAero: "2.0", PaperSpeedup: "0.8", Table: 1,
		},
	}
	return rows
}

// Table2 returns the 7 rows of the paper's Table 2 (naïve all-methods
// atomicity specifications: violations close early, Velodrome's graph stays
// tiny, and the vector-clock overhead is visible).
func Table2(maxEvents int64, maxVars int) []PaperRow {
	if maxEvents <= 0 {
		maxEvents = 2_000_000
	}
	if maxVars <= 0 {
		maxVars = 20_000
	}
	rows := []PaperRow{
		{
			Config: Config{
				Name: "batik", Threads: 7, Locks: 1000,
				Vars: maxVars, Events: capEvents(186_000_000, maxEvents),
				OpsPerTxn: 5, Pattern: PatternChain, Inject: ViolationCross,
				InjectAt: 0.75, Seed: 201,
			},
			PaperEvents: "186M", PaperTxns: "15M", PaperAtomic: false,
			PaperVelo: "52.7", PaperAero: "65.5", PaperSpeedup: "0.81", Table: 2,
		},
		{
			Config: Config{
				Name: "crypt", Threads: 7, Locks: 1,
				Vars: maxVars, Events: capEvents(126_000_000, maxEvents),
				OpsPerTxn: 8, Pattern: PatternSharded, TxnFraction: 0.0002,
				Inject: ViolationCross, InjectAt: 0.8, Seed: 202,
			},
			PaperEvents: "126M", PaperTxns: "50", PaperAtomic: false,
			PaperVelo: "92.1", PaperAero: "104", PaperSpeedup: "0.88", Table: 2,
		},
		{
			Config: Config{
				Name: "fop", Threads: 1, Locks: 115,
				Vars: maxVars, Events: capEvents(96_000_000, maxEvents),
				OpsPerTxn: 3, Pattern: PatternChain, Inject: ViolationNone,
				Seed: 203,
			},
			PaperEvents: "96M", PaperTxns: "25M", PaperAtomic: true,
			PaperVelo: "88.3", PaperAero: "92.5", PaperSpeedup: "0.95", Table: 2,
		},
		{
			Config: Config{
				Name: "lufact", Threads: 4, Locks: 1,
				Vars: capInt(10_000, maxVars), Events: capEvents(135_000_000, maxEvents),
				OpsPerTxn: 4, Pattern: PatternChain, Inject: ViolationCross,
				InjectAt: 0.2, Seed: 204,
			},
			PaperEvents: "135M", PaperTxns: "642M", PaperAtomic: false,
			PaperVelo: "2.4", PaperAero: "2.9", PaperSpeedup: "0.82", Table: 2,
		},
		{
			Config: Config{
				Name: "series", Threads: 4, Locks: 1,
				Vars: capInt(20_000, maxVars), Events: capEvents(40_000_000, maxEvents),
				OpsPerTxn: 4, Pattern: PatternHub, Inject: ViolationCross,
				InjectAt: 0.9, AbsorbEvery: 4096, Seed: 205,
			},
			PaperEvents: "40M", PaperTxns: "20M", PaperAtomic: false,
			PaperVelo: "61.0", PaperAero: "15.3", PaperSpeedup: "3.98", Table: 2,
		},
		{
			Config: Config{
				Name: "sparsematmult", Threads: 4, Locks: 1,
				Vars: maxVars, Events: capEvents(726_000_000, maxEvents),
				OpsPerTxn: 10, Pattern: PatternSharded, TxnFraction: 0.0001,
				Inject: ViolationCross, InjectAt: 0.95, Seed: 206,
			},
			PaperEvents: "726M", PaperTxns: "25", PaperAtomic: false,
			PaperVelo: "1210", PaperAero: "1197", PaperSpeedup: "1.01", Table: 2,
		},
		{
			Config: Config{
				Name: "tomcat", Threads: 4, Locks: 1,
				Vars: maxVars, Events: capEvents(726_000_000, maxEvents),
				OpsPerTxn: 10, Pattern: PatternSharded, TxnFraction: 0.0001,
				Inject: ViolationCross, InjectAt: 0.1, Seed: 207,
			},
			PaperEvents: "726M", PaperTxns: "25", PaperAtomic: false,
			PaperVelo: "3.4", PaperAero: "4.5", PaperSpeedup: "0.75", Table: 2,
		},
	}
	return rows
}

// FindRow returns the named row from either table (scaled), or false.
func FindRow(name string, maxEvents int64, maxVars int) (PaperRow, bool) {
	for _, r := range Table1(maxEvents, maxVars) {
		if r.Config.Name == name {
			return r, true
		}
	}
	for _, r := range Table2(maxEvents, maxVars) {
		if r.Config.Name == name {
			return r, true
		}
	}
	return PaperRow{}, false
}
