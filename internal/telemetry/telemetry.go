// Package telemetry is the observability layer of the serving runtime:
// request-scoped span tracing with per-stage attribution (within one
// process and across the fronthaul split), a dependency-free
// Prometheus/JSON exposition model, rolling SLO burn-rate accounting,
// and an admin HTTP server that makes a running vranserve scrapeable
// while it serves.
//
// The paper's whole argument is an attribution exercise — top-down
// counters and per-stage cycle accounting are what localized the data-
// arrangement bottleneck — and this package extends that methodology
// from one-shot offline runs (vranpipe, vranbench) to the live runtime:
// the same stage vocabulary, exported continuously, and since the fleet
// split (internal/shard) carried across process boundaries by a
// propagatable SpanContext.
//
// The package is a leaf: it depends only on the standard library, so the
// runtime packages (internal/ran, internal/pipeline) can import it
// without cycles.
package telemetry

// Stage names: the shared vocabulary between the offline pipeline
// report, the live /metrics scrape and the fleet hop attribution.
// StageDecode is shared with the offline pipeline (internal/pipeline
// wraps its turbo decoding in a runner.section of the same name), so a
// vranpipe per-stage report and a live scrape can be diffed.
const (
	// StageRoute is the coordinator-side routing decision: Submit entry
	// until the data frame starts encoding (DU side of the split).
	StageRoute = "route"
	// StageEncodeWire is the fronthaul frame serialization: packing the
	// soft word into its int8 wire form.
	StageEncodeWire = "encode-wire"
	// StagePark is the time a frame spent held in the coordinator's
	// migration parking buffer before being flushed to the new owner.
	StagePark = "park"
	// StageLink is the fronthaul dwell: origin send stamp until the
	// shard read the frame. Computed from the propagated origin offset
	// and clamped at zero, so cross-host clock skew can never make it
	// negative.
	StageLink = "link"
	// StageIngest is the shard-side frame decode: wire bytes back into
	// a soft word, up to the Submit call.
	StageIngest = "ingest"
	// StageQueue is the time from Submit until a worker takes the block,
	// with up to a register's worth of same-K co-travellers, out of the
	// runtime's ready structure.
	StageQueue = "queue"
	// StageBatch is the time from that take until the worker starts
	// decoding the batch (its expiry checks and, on a block size's first
	// decode on that worker, the state build). Nothing waits for lane
	// co-travellers, so it is near zero.
	StageBatch = "batch"
	// StageDecode is the lane-parallel turbo decode itself.
	StageDecode = "decode"
	// StageCompile is the one-time trace-replay program compilation a
	// worker pays on the first decode of a block size (see
	// internal/simd/program); later decodes of that size replay the
	// compiled program and never revisit this stage.
	StageCompile = "compile"
	// StageHARQRetry is the dwell a block accumulated in earlier HARQ
	// attempts: for a delivered retry, every prior attempt's queue,
	// batch and decode time is folded here so the final span's stages
	// still sum to the block's end-to-end latency.
	StageHARQRetry = "harq-retry"
	// StageDrain is a migration's source-side drain RPC (coordinator
	// view), recorded once per migration, not per block.
	StageDrain = "drain"
	// StageInstall is a migration's target-side state forward + commit
	// (coordinator view), recorded once per migration.
	StageInstall = "install"
)
