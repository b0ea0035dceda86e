package robust

// Test-only exports: the external test package (robust_test) drives the
// preserved PR 5 oracle loop (oracle_test.go) and the fast path's
// replay-eligibility and stopping primitives directly.

// OracleEngine is the preserved PR 5 trial loop.
type OracleEngine = oracleEngine

var (
	ScheduleInvariant = scheduleInvariant
	WilsonCI          = wilsonCI
	SeqDecided        = seqDecided
)

// SurfaceOverflowsTotal is repro_robust_surface_overflows_total.
var SurfaceOverflowsTotal = surfaceOverflows
