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

// recordOf is the fused kind each record kind runs.
var recordOf = map[uint32]uint8{
	nCopyRun:      mCopyRun,
	nExtVec:       mExtVec,
	nMergeReg:     mQuadScatter,
	nMergeMem:     mQuadGather,
	nAlphaSweep:   mAlphaStepP,
	nBetaSweep:    mBetaStepP,
	nBetaExtSweep: mBetaStepP,
}

// FusedKindCounts reports how many ops of each fused kind the stream of
// segment seg of p runs: a sweep record counts its steps, any other record
// once (so a copy run cut at a yield counts once a piece).
func (p *Program) FusedKindCounts(seg int) map[string]int {
	counts := make(map[string]int)
	code := p.code[seg]
	for pc := 0; pc < len(code); pc += recordWords(code[pc:]) {
		kind, ok := recordOf[code[pc]&0xff]
		if !ok {
			continue
		}
		n := 1
		if kind == mAlphaStepP || kind == mBetaStepP {
			n = int(code[pc] >> 8)
		}
		counts[fusedKindNames[kind]] += n
	}
	return counts
}
