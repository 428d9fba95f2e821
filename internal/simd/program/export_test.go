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
	mLoop:        "loop",
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
// segment seg of p runs: a sweep record counts its steps, a record in a
// loop's body once a trip, and any other record once (so a copy run cut at
// a yield counts once a piece); "loop" counts the loop records, each piece
// of a loop cut at a yield one.
func (p *Program) FusedKindCounts(seg int) map[string]int {
	counts := make(map[string]int)
	count := func(rec []uint32, times int) {
		kind, ok := recordOf[rec[0]&0xff]
		if !ok {
			return
		}
		n := 1
		if kind == mAlphaStepP || kind == mBetaStepP {
			n = int(rec[0] >> 8)
		}
		counts[fusedKindNames[kind]] += n * times
	}
	code := p.code[seg]
	for pc := 0; pc < len(code); pc += recordWords(code[pc:]) {
		if code[pc]&0xff != nLoop {
			count(code[pc:], 1)
			continue
		}
		counts[fusedKindNames[mLoop]]++
		def := code[pc-int(code[pc+2]):]
		body := def[5+def[3]:][:def[4+def[3]]]
		for i := 0; i < len(body); i += recordWords(body[i:]) {
			count(body[i:], int(code[pc]>>8))
		}
	}
	return counts
}
