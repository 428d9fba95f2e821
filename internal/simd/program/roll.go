package program

import (
	"fmt"
	"slices"
)

// Rolling. A decode is a handful of phases, each a run over the trellis
// steps or the packed vector groups of K, so a program written out op by op
// grows with K: a K=6144 iteration is 55,000 fused ops. The roller is the
// one rule that folds such runs into loops. It is applied where the
// Emitter appends ops to a segment, so a segment is never held unrolled.
//
// A loop is an mLoop op — n its body's op count, imm its trip count, tab
// the offset in the aux pool of its strides — followed by its body, the
// ops of trip 0. Trip t runs each body op with every region address moved
// by t times that address's stride: the strides are one per address of
// the body, in body order and, within an op, in operand order (addrAt).
// Everything else about an op, its registers, tables and counts, is the
// same on every trip.
//
// The rule, at the head of the window of ops not yet placed: among the
// body lengths b up to maxBody whose next trip repeats the first, each
// later trip moving every address by the same stride again, take the one
// that covers the most of the window, the shortest on a tie; place a loop
// of it, and extend it while the ops that follow continue it. With no such
// b, place the head op as it is and look again at the next.
const (
	// maxBody bounds a loop body: an APCM arrangement group is 24 ops,
	// a gamma group 16 and a group of beta steps 8.
	maxBody = 32
	// rollWindow is how many ops the roller looks ahead before it places
	// the head of the window.
	rollWindow = 3 * maxBody
)

// pend is an op in the roller's window: its aux words (fused kinds) and
// its addresses, as offsets into the roller's buffers, and a digest of
// its shape (shapeSig), which two ops of one shape share.
type pend struct {
	op          mop
	word, words int32 // roller.words[word : word+words]
	addr, addrs int32 // roller.addrs[addr : addr+addrs]
	sig         uint64
}

// roller builds one segment of p (out), rolling repeats as they are
// appended. Placed ops and loop bodies have their aux words in p.aux.
type roller struct {
	p   *Program
	out []mop

	// The window: win[h:] are the ops not yet placed, or, while a loop is
	// open, the ops of its next trip matched so far.
	win   []pend
	h     int
	words []int32
	addrs []int64
	spare struct {
		win   []pend
		words []int32
		addrs []int64
	}

	// The open loop: out[head] is its header and the op after it the
	// first of its body. base holds the body's trip-0 addresses, from
	// bodyAt[i] on for body op i, and stride their strides.
	open   bool
	head   int
	bodyAt []int
	base   []int64
	stride []int64
	trips  int
	part   int // ops of the next trip in the window
}

func newRoller(p *Program) *roller { return &roller{p: p} }

// push appends op to the segment, words its aux words (nil for a
// singleton). The roller copies them.
func (r *roller) push(op mop, words []int32) {
	x := pend{op: op, word: int32(len(r.words)), words: int32(len(words)), addr: int32(len(r.addrs)), sig: shapeSig(&op, words)}
	r.words = append(r.words, words...)
	r.addrs = appendAddrs(r.addrs, &op, words)
	x.addrs = int32(len(r.addrs)) - x.addr
	if r.open {
		if r.continues(&x) {
			r.win = append(r.win, x)
			if r.part++; r.part == len(r.bodyAt)-1 {
				r.trips, r.part = r.trips+1, 0
				r.win, r.h, r.words, r.addrs = r.win[:0], 0, r.words[:0], r.addrs[:0]
			}
			return
		}
		r.close()
	}
	r.win = append(r.win, x)
	if len(r.win)-r.h >= rollWindow {
		r.decide()
	}
}

// flush places every op still pending and returns the segment.
func (r *roller) flush() []mop {
	for {
		if r.open {
			r.close()
		}
		if r.h == len(r.win) {
			r.win, r.h, r.words, r.addrs = r.win[:0], 0, r.words[:0], r.addrs[:0]
			return slices.Clip(r.out)
		}
		r.decide()
	}
}

// openBody reports the body length of the open loop and where in the
// segment its header is, when one is open and no trip of it is under way.
func (r *roller) openBody() (n, head int, ok bool) {
	return len(r.bodyAt) - 1, r.head, r.open && r.part == 0
}

// extend adds n trips to the open loop, which openBody reported: trips its
// caller vouches continue it.
func (r *roller) extend(n int) { r.trips += n }

// wordsOf and addrsOf are x's aux words and addresses.
func (r *roller) wordsOf(x *pend) []int32 { return r.words[x.word : x.word+x.words] }
func (r *roller) addrsOf(x *pend) []int64 { return r.addrs[x.addr : x.addr+x.addrs] }

// place appends op to the segment, its words to the aux pool.
func (r *roller) place(op mop, words []int32) {
	if op.kind >= firstFused {
		op.tab = int32(len(r.p.aux))
		r.p.aux = append(r.p.aux, words...)
	}
	r.out = append(r.out, op)
}

// decide places the head of the window: a loop starting there, or the op.
func (r *roller) decide() {
	w := r.win[r.h:]
	best, cover := 0, 0
	for b := 1; b <= maxBody && 2*b <= len(w) && cover < len(w); b++ {
		if m := r.repeats(w, b); m >= b && b+m > cover {
			best, cover = b, b+m
		}
	}
	if best == 0 {
		r.place(w[0].op, r.wordsOf(&w[0]))
		r.h++
		if r.h >= rollWindow {
			r.compact()
		}
		return
	}
	r.head, r.open, r.trips, r.part = len(r.out), true, 1, 0
	r.out = append(r.out, mop{kind: mLoop, n: int32(best)})
	r.bodyAt, r.base, r.stride = append(r.bodyAt[:0], 0), r.base[:0], r.stride[:0]
	for i := range w[:best] {
		r.place(w[i].op, r.wordsOf(&w[i]))
		a0, a1 := r.addrsOf(&w[i]), r.addrsOf(&w[best+i])
		for j := range a0 {
			r.base = append(r.base, a0[j])
			r.stride = append(r.stride, a1[j]-a0[j])
		}
		r.bodyAt = append(r.bodyAt, len(r.base))
	}
	// The rest of the window is appended again, to the open loop: its
	// buffers are set aside for that and become the spare ones after.
	win, words, addrs := r.win, r.words, r.addrs
	r.win, r.h, r.words, r.addrs = r.spare.win[:0], 0, r.spare.words[:0], r.spare.addrs[:0]
	for i := range w[best:] {
		x := &w[best+i]
		r.push(x.op, words[x.word:x.word+x.words])
	}
	r.spare.win, r.spare.words, r.spare.addrs = win[:0], words[:0], addrs[:0]
}

// repeats counts the ops from w[b] on that continue a loop of body w[:b]:
// each is the op b before it but for its addresses, and from the third
// trip on each address has moved by the stride it moved by the trip
// before.
func (r *roller) repeats(w []pend, b int) int {
	for i := b; i < len(w); i++ {
		x, y := &w[i], &w[i-b]
		if x.sig != y.sig || !sameShape(&x.op, r.wordsOf(x), &y.op, r.wordsOf(y)) {
			return i - b
		}
		if i >= 2*b {
			xa, ya, za := r.addrsOf(x), r.addrsOf(y), r.addrsOf(&w[i-2*b])
			for j := range xa {
				if xa[j]-ya[j] != ya[j]-za[j] {
					return i - b
				}
			}
		}
	}
	return len(w) - b
}

// continues reports whether x is the next op of the open loop's current
// trip.
func (r *roller) continues(x *pend) bool {
	b := &r.out[r.head+1+r.part]
	var bw []int32
	if b.kind >= firstFused {
		bw = r.p.aux[b.tab : b.tab+auxLen(b)]
	}
	if !sameShape(&x.op, r.wordsOf(x), b, bw) {
		return false
	}
	lo := r.bodyAt[r.part]
	t := int64(r.trips)
	for j, a := range r.addrsOf(x) {
		if a != r.base[lo+j]+t*r.stride[lo+j] {
			return false
		}
	}
	return true
}

// close ends the open loop: its header takes the trip count and the
// strides. The ops of an unfinished trip stay in the window.
func (r *roller) close() {
	hd := &r.out[r.head]
	hd.imm, hd.tab = int64(r.trips), int32(len(r.p.aux))
	for _, s := range r.stride {
		r.p.aux = append(r.p.aux, int32(s))
	}
	r.open = false
}

// compact drops the placed ops from the front of the window's buffers.
func (r *roller) compact() {
	w := r.win[r.h:]
	if len(w) == 0 {
		r.win, r.h, r.words, r.addrs = r.win[:0], 0, r.words[:0], r.addrs[:0]
		return
	}
	dw, da := w[0].word, w[0].addr
	r.words = r.words[:copy(r.words, r.words[dw:])]
	r.addrs = r.addrs[:copy(r.addrs, r.addrs[da:])]
	r.win = r.win[:copy(r.win, w)]
	for i := range r.win {
		r.win[i].word -= dw
		r.win[i].addr -= da
	}
	r.h = 0
}

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

// shapeSig digests what sameShape compares of an op: ops of one shape have
// one digest, so a differing digest rejects a pair at once.
func shapeSig(op *mop, words []int32) uint64 {
	const mul = 0x9e3779b97f4a7c15
	h := uint64(op.kind) | uint64(uint32(op.n))<<8 | uint64(len(words))<<40
	for _, x := range [...]int64{int64(op.d), int64(op.a), int64(op.b), op.imm} {
		h = (h ^ uint64(x)) * mul
	}
	if op.kind < firstFused {
		h = (h ^ uint64(uint32(op.tab))) * mul
		if !hasAddr(op.kind) {
			h = (h ^ uint64(op.addr)) * mul
		}
		return h
	}
	for i, x := range words {
		if !addrAt(op, i) {
			h = (h ^ uint64(uint32(x))) * mul
		}
	}
	return h
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
