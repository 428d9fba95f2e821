package program

import "slices"

// Loops. A decode is a handful of phases, each a run over the trellis
// steps or the packed vector groups of K, so a program written out record
// by record grows with K. The caller states each such run as an
// Emitter.Loop, and Loop writes it as loop records when its trips repeat
// trip 0, so a segment's stream does not grow with K.

// tripRec is a record Loop logged: where it starts and its units of work.
type tripRec struct{ at, units int }

// A mark is where a trip starts: in the stream and in each of the logs.
type mark struct{ code, recs, addrs, uses int }

func (e *Emitter) mark() mark { return mark{len(e.code), len(e.recs), len(e.addrs), len(e.uses)} }

func (m mark) sub(o mark) mark {
	return mark{m.code - o.code, m.recs - o.recs, m.addrs - o.addrs, m.uses - o.uses}
}

// Loop emits trips trips of a loop: body(t) emits trip t, which must be
// trip 0 with each address moved by t times a stride of its own. Loop
// writes trips 0, 1 and the last, logging where their records and address
// words are and how they use registers. When both later ones are trip 0
// but for their addresses, and the last one's addresses are where trip 1's
// strides take trip 0's, the loop is written from trip 0's records, for
// three trips' cost whatever the count (writeLoop). Otherwise, and for
// fewer than two trips, every trip is emitted again as it is, in order. A
// Loop may not hold a Loop.
func (e *Emitter) Loop(trips int, body func(t int)) {
	if e.trip {
		e.fail("a Loop in the body of a Loop")
		return
	}
	if trips < 2 {
		for t := range trips {
			body(t)
		}
		return
	}
	regs, pats, err := slices.Clone(e.regs[e.seg]), len(e.p.pats), e.err
	var m [4]mark
	e.trip, m[0] = true, e.mark()
	body(0)
	m[1] = e.mark()
	body(1)
	m[2] = e.mark()
	if trips > 2 {
		body(trips - 1)
	}
	m[3] = e.mark()
	e.trip = false
	folded := e.fold(&m, trips)
	e.recs, e.addrs, e.uses = e.recs[:0], e.addrs[:0], e.uses[:0]
	if folded {
		return
	}
	// The last trip was written out of order: what it did to the registers
	// and the pattern pool, and any error it met, is undone with the rest.
	// A table it named stays interned.
	e.code, e.regs[e.seg], e.p.pats, e.err = e.code[:m[0].code], regs, e.p.pats[:pats], err
	for t := range trips {
		body(t)
	}
}

// fold writes the trips marked by m — trip 0, trip 1 and, past two trips,
// the last — as a loop of trips trips when they are one, in place of the
// three, and reports whether they were.
func (e *Emitter) fold(m *[4]mark, trips int) bool {
	n := m[1].sub(m[0])
	if n.code == 0 {
		return false
	}
	code0 := e.code[m[0].code:m[1].code]
	strides := make([]int64, n.addrs)
	for j := 1; j < min(trips, 3); j++ {
		t := m[j]
		if m[j+1].sub(t) != n || !slices.Equal(e.uses[m[0].uses:m[1].uses], e.uses[t.uses:m[j+1].uses]) {
			return false
		}
		for i := range n.recs {
			r0, r := e.recs[m[0].recs+i], e.recs[t.recs+i]
			if r.at-t.code != r0.at-m[0].code || r.units != r0.units {
				return false
			}
		}
		code, from := e.code[t.code:m[j+1].code], 0
		for i := range n.addrs {
			at := e.addrs[m[0].addrs+i] - m[0].code
			if e.addrs[t.addrs+i]-t.code != at || !slices.Equal(code0[from:at], code[from:at]) {
				return false
			}
			from = at + 1
			if a0, a := int64(code0[at]), int64(code[at]); j == 1 {
				strides[i] = a - a0
			} else if a != a0+int64(trips-1)*strides[i] {
				return false
			}
		}
		if !slices.Equal(code0[from:], code[from:]) {
			return false
		}
	}
	body := slices.Clone(code0)
	recs, addrs := slices.Clone(e.recs[m[0].recs:m[1].recs]), slices.Clone(e.addrs[m[0].addrs:m[1].addrs])
	for i := range recs {
		recs[i].at -= m[0].code
	}
	for i := range addrs {
		addrs[i] -= m[0].code
	}
	e.code = e.code[:m[0].code]
	e.writeLoop(body, recs, addrs, strides, trips)
	return true
}

// minTrip is the fewest records a loop record's trip runs: a shorter body
// is unrolled, so that the record's cost a trip, about one record's, is
// spread over several.
const minTrip = 8

// writeLoop writes trips trips of the loop whose trip 0 is the records of
// body — recs where each starts and its work, addrs where each address word
// is, strides how far each moves a trip — as loop records and, for the
// trips a short body's unrolled copies do not divide, as records. The u
// copies of the body are written once, to a definition the first loop
// record holds: the strides of its classes, then the copies' records,
// copy c's addresses trip c's, each record's addresses added to the base
// of one class, with a base record wherever the class changes. That record
// runs as many trips as the room left holds; each further piece is a loop
// record of its own naming the definition and its first trip. A body whose
// records cannot be given classes — a record with addresses that move by
// two strides, or more strides than classes — is written trip by trip.
// Every address lies between trip 0's and the last trip's, which the
// methods checked as they wrote them.
func (e *Emitter) writeLoop(body []uint32, recs []tripRec, addrs []int, strides []int64, trips int) {
	u := min((minTrip+len(recs)-1)/len(recs), trips)
	rolled := trips / u
	var def []uint32
	var classes []int64
	cur, mixed, perTrip := 0, false, 0 // a trip starts at class 1
	for c := range u {
		k := 0
		for i, r := range recs {
			end := len(body)
			if i+1 < len(recs) {
				end = recs[i+1].at
			}
			at, cls := len(def), -1
			def = append(def, body[r.at:end]...)
			for ; k < len(addrs) && addrs[k] < end; k++ {
				def[at+addrs[k]-r.at] += uint32(int64(c) * strides[k])
				s := strides[k] * int64(u)
				ci := slices.Index(classes, s)
				if ci < 0 {
					ci, classes = len(classes), append(classes, s)
				}
				switch {
				case ci >= maxClasses || cls >= 0 && cls != ci:
					mixed = true
				case cls < 0 && ci != cur:
					def = slices.Insert(def, at, nBase|uint32(ci+1)<<8)
					at++
					cur = ci
				}
				cls = ci
			}
			perTrip += r.units
		}
	}
	def = append(def, nEnd)
	if mixed {
		rolled = 0
	}
	first := -1
	for t0 := 0; t0 < rolled; {
		n := min(max(e.room(perTrip)/perTrip, 1), rolled-t0)
		e.work += n * perTrip
		if first < 0 {
			first = len(e.code)
			e.head(nLoop, n, 0, 0, uint32(len(classes)))
			for _, s := range classes {
				e.code = append(e.code, uint32(s))
			}
			e.code = append(append(e.code, uint32(len(def))), def...)
		} else {
			e.head(nLoop, n, uint32(t0), uint32(len(e.code)-first))
		}
		t0 += n
	}
	for t := rolled * u; t < trips; t++ {
		e.room(perTrip / u)
		at := len(e.code)
		e.code = append(e.code, body...)
		for k, a := range addrs {
			e.code[at+a] += uint32(int64(t) * strides[k])
		}
		e.work += perTrip / u
	}
}
