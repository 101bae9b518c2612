package main

// Input sizes and frozen load settings. The fixed rates and the latency
// limit were calibrated once on the 2-CPU box described in README.md and
// are absolute numbers from then on, so the parent and a change are
// always offered the same load.

type scale struct {
	name string

	narrowEvents             int64
	wideEvents               int64
	wideThreads              int
	minRuns                  int // batch: timed CLI runs at least
	setupReps                int // set-ups per run; setup_s is their median
	servePool                [3]int
	serveSizes               [3]int64
	streamPool               int
	streamEvents             int64
	loRPS, hiRPS             float64 // serve-check fixed rates
	p99LimitMs               float64 // serve-check latency limit of the max_ok_rps search
	probes                   int     // max_ok_rps search probes
	streamChunksPerS         float64 // stream-sessions fixed chunk rate
	liveSessions, chunkBytes int
	ledgerReps               int
	fingerprints             map[string]string // seed-1 input sha256 per workload
}

var scales = map[string]scale{
	"full": {
		name:         "full",
		narrowEvents: 2_000_000, wideEvents: 1_000_000, wideThreads: 256,
		minRuns: 5, setupReps: 15,
		servePool: [3]int{38, 19, 7}, serveSizes: [3]int64{2_000, 10_000, 50_000},
		streamPool: 16, streamEvents: 15_000,
		loRPS: 200, hiRPS: 450, p99LimitMs: 60, probes: 4,
		streamChunksPerS: 500, liveSessions: 8, chunkBytes: 16 << 10,
		ledgerReps: 3,
		fingerprints: map[string]string{
			"batch-narrow":    "bdf80300b3a16b5398ab4b377a431a443b866417382c0536e35946df394699b1",
			"batch-wide":      "5c329fb1363a33b93d861349dd5f0a19791ffadda361b40da8930b233d845201",
			"serve-check":     "12e60bb686dbf73455d1c6f9e80ab6e15e31f9c1b4eda08fbc582d56c28bff5c",
			"stream-sessions": "4371fdc1ee83c41a52430f379ea3a5f849c91c88a1347576d0f6fe7948ea94d2",
		},
	},
	"smoke": {
		name:         "smoke",
		narrowEvents: 60_000, wideEvents: 30_000, wideThreads: 64,
		minRuns: 3, setupReps: 3,
		servePool: [3]int{5, 2, 1}, serveSizes: [3]int64{500, 2_000, 5_000},
		streamPool: 4, streamEvents: 3_000,
		loRPS: 40, hiRPS: 80, p99LimitMs: 500, probes: 1,
		streamChunksPerS: 80, liveSessions: 4, chunkBytes: 4 << 10,
		ledgerReps: 1,
	},
}
