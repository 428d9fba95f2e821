package program

import "fmt"

// Loops. A decode is a handful of phases, each a run over the trellis
// steps or the packed vector groups of K, so a program written out op by
// op grows with K: a K=6144 iteration is 55,000 fused ops. The caller
// states each such run as an Emitter.Loop, and Loop writes it as a loop
// when its trips repeat trip 0 (emit.go), so a segment is never held
// unrolled.
//
// A loop is an mLoop op — n its body's op count, imm its trip count, tab
// the offset in the aux pool of its strides — followed by its body, the
// ops of trip 0. Trip t runs each body op with every region address moved
// by t times that address's stride: the strides are one per address of
// the body, in body order and, within an op, in operand order (addrAt).
// Everything else about an op, its registers, tables and counts, is the
// same on every trip (sameShape).

// sameShape reports whether two ops are the same but for their region
// addresses: what a loop's trips share.
func sameShape(a *mop, aw []int32, b *mop, bw []int32) bool {
	if a.kind != b.kind || a.d != b.d || a.a != b.a || a.b != b.b || a.imm != b.imm || a.n != b.n {
		return false
	}
	if a.kind < firstFused {
		return a.tab == b.tab && (hasAddr(a.kind) || a.addr == b.addr)
	}
	if len(aw) != len(bw) {
		return false
	}
	for i := range aw {
		if aw[i] != bw[i] && !addrAt(a, i) {
			return false
		}
	}
	return true
}

// hasAddr reports whether a singleton of kind k addresses the region
// (its addr).
func hasAddr(k uint8) bool { return k == mLoad || k == mStore || k == mExtrW }

// addrAt reports whether aux word i of op is a region address. An op's
// addresses in the order of its aux words are its operand order, the order
// visitEffects reports them in and lower emits them in.
func addrAt(op *mop, i int) bool {
	switch op.kind {
	case mExtVec:
		return i >= 7
	case mQuadScatter:
		return i == 2
	case mQuadGather:
		return i == 3 || i >= 4 && i%2 == 0
	case mAlphaStepP:
		return i == 9 || i == 10
	case mBetaStepP:
		return i == 9 || i == 22 || i >= 26 && i%2 == 0
	}
	return false
}

// auxLen is how many aux words an op of a fused kind has.
func auxLen(op *mop) int32 {
	switch op.kind {
	case mExtVec:
		return 11
	case mQuadScatter:
		return 3 + 2*op.n
	case mQuadGather:
		return 4 + 2*op.n
	case mAlphaStepP:
		return 16
	case mBetaStepP:
		if op.imm != 0 {
			return 26 + 2*op.n
		}
		return 15
	}
	return 0
}

// words is a fused op's aux words, nil for a singleton's.
func (p *Program) words(op *mop) []int32 {
	if op.kind < firstFused {
		return nil
	}
	return p.aux[op.tab:][:auxLen(op)]
}

// appendAddrs appends op's region addresses, in operand order.
func appendAddrs(dst []int64, op *mop, words []int32) []int64 {
	pair := func(from int) {
		for i := from; i < len(words); i += 2 {
			dst = append(dst, int64(words[i]))
		}
	}
	switch op.kind {
	case mLoad, mStore, mExtrW:
		dst = append(dst, op.addr)
	case mExtVec:
		dst = append(dst, int64(words[7]), int64(words[8]), int64(words[9]), int64(words[10]))
	case mQuadScatter:
		dst = append(dst, int64(words[2]))
	case mQuadGather:
		dst = append(dst, int64(words[3]))
		pair(4)
	case mAlphaStepP:
		dst = append(dst, int64(words[9]), int64(words[10]))
	case mBetaStepP:
		dst = append(dst, int64(words[9]))
		if op.imm != 0 {
			dst = append(dst, int64(words[22]))
			pair(26)
		}
	}
	return dst
}

// addrCount is how many region addresses op has.
func addrCount(op *mop) int {
	switch op.kind {
	case mExtVec:
		return 4
	case mQuadScatter:
		return 1
	case mQuadGather:
		return int(1 + op.n)
	case mAlphaStepP:
		return 2
	case mBetaStepP:
		if op.imm != 0 {
			return int(2 + op.n)
		}
		return 1
	}
	if hasAddr(op.kind) {
		return 1
	}
	return 0
}

// loopAt returns the body and the per-address strides of the loop whose
// header is ops[i], checking that both lie inside the segment and the pool.
func (p *Program) loopAt(ops []mop, i int) (body []mop, strides []int32, err error) {
	hd := &ops[i]
	if hd.n < 1 || int(hd.n) > len(ops)-i-1 || hd.imm < 2 {
		return nil, nil, fmt.Errorf("program: loop at op %d of %d ops, %d trips, over a segment of %d", i, hd.n, hd.imm, len(ops))
	}
	body = ops[i+1 : i+1+int(hd.n)]
	n := 0
	for j := range body {
		if body[j].kind == mLoop {
			return nil, nil, fmt.Errorf("program: op kind %d in the body of the loop at op %d", body[j].kind, i)
		}
		n += addrCount(&body[j])
	}
	if hd.tab < 0 || int(hd.tab)+n > len(p.aux) {
		return nil, nil, fmt.Errorf("program: strides of the loop at op %d outside the pool", i)
	}
	return body, p.aux[hd.tab : int(hd.tab)+n], nil
}
