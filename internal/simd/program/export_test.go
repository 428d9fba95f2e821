package program

// fusedKindNames names every fused op kind, for the external coverage
// test. A kind added to compile.go without a name here fails that test.
var fusedKindNames = map[uint8]string{
	mCopyRun:     "copy run",
	mExtVec:      "ext vec",
	mQuadScatter: "quad scatter",
	mQuadGather:  "quad gather",
	mAlphaStepP:  "alpha step",
	mBetaStepP:   "beta step",
}

// FusedKinds lists the name of every fused op kind the compiler defines
// ("" for one fusedKindNames does not know).
func FusedKinds() []string {
	var names []string
	for k := firstFused; k < numKinds; k++ {
		names = append(names, fusedKindNames[k])
	}
	return names
}

// FusedKindCounts reports how many ops of each fused kind segment seg of
// p holds.
func (p *Program) FusedKindCounts(seg int) map[string]int {
	counts := make(map[string]int)
	for _, op := range p.segs[seg] {
		if op.kind >= firstFused {
			counts[fusedKindNames[op.kind]]++
		}
	}
	return counts
}

// NativeAvailable reports whether this host has the native kernel.
func NativeAvailable() bool { return nativeAvailable }

// GoBodies reports, per segment, whether finalize lowered it to a
// descriptor stream and how many of its ops that stream hands back to
// their Go body.
func (p *Program) GoBodies() (lowered [2]bool, goBodies [2]int) {
	for seg, code := range p.native {
		lowered[seg] = code != nil
		_, goBodies[seg] = countStops(code)
	}
	return lowered, goBodies
}
