package turbo

// resetPlanCache empties the process-wide plan cache and zeroes its
// counters, so a test that counts compiles starts cold whatever ran before
// it in the binary. Decoders built earlier keep the plans they adopted.
// Not for use while another goroutine decodes.
func resetPlanCache() {
	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	planCache.flights = nil
	planCache.compiles.Store(0)
	planCache.waiters.Store(0)
	planCache.failures.Store(0)
	planCache.compileNs.Store(0)
}
