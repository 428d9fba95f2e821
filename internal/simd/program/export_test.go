package program

import (
	"fmt"
	"slices"
)

// fusedKinds names the record kinds the Emitter's fused methods write, and
// the loop record, for the external coverage test.
var fusedKinds = map[uint32]string{
	nExtVec:       "ext vec",
	nGammaSweep:   "gamma group",
	nMergeMem:     "quad gather",
	nAlphaSweep:   "alpha step",
	nBetaSweep:    "beta step",
	nBetaExtSweep: "beta step",
	nLoop:         "loop",
}

// FusedKinds lists the names of fusedKinds, each once.
func FusedKinds() []string {
	var names []string
	for _, name := range fusedKinds {
		names = append(names, name)
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// StreamBytes is the size of p's descriptor streams, both segments, in
// bytes.
func (p *Program) StreamBytes() int { return 4 * (len(p.code[SegFirst]) + len(p.code[SegSteady])) }

// FusedKindCounts reports how many ops of each fused kind the stream of
// segment seg of p runs: a sweep record counts its steps or groups, a record in a
// loop's body once a trip, and any other record once; "loop" counts the
// loop records, each piece of a loop cut at a yield one.
func (p *Program) FusedKindCounts(seg int) map[string]int {
	counts := make(map[string]int)
	count := func(rec []uint32, times int) {
		kind := rec[0] & 0xff
		if name, ok := fusedKinds[kind]; ok && kind != nLoop {
			n := 1
			if kind == nAlphaSweep || kind == nBetaSweep || kind == nBetaExtSweep || kind == nGammaSweep {
				n = int(rec[0] >> 8)
			}
			counts[name] += n * times
		}
	}
	code := p.code[seg]
	for pc := 0; pc < len(code); pc += recordWords(code[pc:]) {
		if code[pc]&0xff != nLoop {
			count(code[pc:], 1)
			continue
		}
		counts[fusedKinds[nLoop]]++
		def := code[pc-int(code[pc+2]):]
		body := def[5+def[3]:][:def[4+def[3]]]
		for i := 0; i < len(body); i += recordWords(body[i:]) {
			count(body[i:], int(code[pc]>>8))
		}
	}
	return counts
}

// recordKindNames names every record kind of kern.go by its constant, as
// kern_amd64.s names it too, for the external coverage tests.
var recordKindNames = map[uint32]string{
	nStop: "nStop", nClear: "nClear", nAnd: "nAnd", nOr: "nOr", nXor: "nXor",
	nSra: "nSra", nBcastImm: "nBcastImm", nSetImm: "nSetImm", nLoad: "nLoad", nLoadReg: "nLoadReg",
	nStore: "nStore", nExtrW: "nExtrW", nExtVec: "nExtVec", nMergeMem: "nMergeMem", nGammaSweep: "nGammaSweep",
	nAlphaSweep: "nAlphaSweep", nBetaSweep: "nBetaSweep", nBetaExtSweep: "nBetaExtSweep",
	nLoop: "nLoop", nEnd: "nEnd", nBase: "nBase",
}

// retiredKinds are the numbers kern.go leaves unused: kinds no compiler
// writes, whose numbers stay out of use so that the streams of the others
// keep their bytes.
var retiredKinds = map[uint32]bool{2: true, 3: true, 4: true, 5: true, 9: true, 12: true, 14: true, 19: true, 21: true}

// RecordKinds lists the name of every record kind kern.go defines ("" for
// one recordKindNames does not know).
func RecordKinds() []string {
	var names []string
	for k := uint32(0); k < numRecordKinds; k++ {
		if !retiredKinds[k] {
			names = append(names, recordKindNames[k])
		}
	}
	return names
}

// ExecutedKindCounts reports how many records of each kind a decode of
// steady iterations dispatches: SegFirst once and SegSteady steady times,
// a loop record once a piece and each record of its body once a trip.
func (p *Program) ExecutedKindCounts(steady int) map[string]int {
	counts := make(map[string]int)
	for seg, times := range [2]int{1, steady} {
		code := p.code[seg]
		for pc := 0; pc < len(code); pc += recordWords(code[pc:]) {
			counts[recordKindNames[code[pc]&0xff]] += times
			if code[pc]&0xff != nLoop {
				continue
			}
			def := code[pc-int(code[pc+2]):]
			body := def[5+def[3]:][:def[4+def[3]]]
			for i := 0; i < len(body); i += recordWords(body[i:]) {
				counts[recordKindNames[body[i]&0xff]] += times * int(code[pc]>>8)
			}
		}
	}
	return counts
}

// RecordKindCounts reports how many records of each kind the streams of p
// hold, the body of each loop definition walked once.
func (p *Program) RecordKindCounts() map[string]int {
	counts := make(map[string]int)
	var walk func(code []uint32)
	walk = func(code []uint32) {
		for pc := 0; pc < len(code); pc += recordWords(code[pc:]) {
			kind := code[pc] & 0xff
			name, ok := recordKindNames[kind]
			if !ok {
				name = fmt.Sprintf("kind %d", kind)
			}
			counts[name]++
			if kind == nLoop && code[pc+2] == 0 {
				nc := int(code[pc+3])
				walk(code[pc+5+nc:][:code[pc+4+nc]])
			}
		}
	}
	for _, code := range p.code {
		walk(code)
	}
	return counts
}
