// Package trace records dynamic instruction (µop) traces produced by the
// SIMD engine and scalar models. A trace is the interface between the
// functional layer (internal/simd and everything built on it) and the
// timing layer (internal/uarch): the functional layer emits one Inst per
// executed operation, carrying its execution class, the registers it
// depends on (as indices of earlier trace entries) and, for memory
// operations, the byte address and width touched.
package trace

import "fmt"

// Class identifies which kind of execution resource an instruction needs.
// The mapping from Class to ports lives in internal/uarch; the paper's
// port model (its Figure 2) distinguishes scalar ALU, vector ALU, load and
// store resources.
type Class uint8

const (
	// ScalarALU is a general-purpose integer/float operation (ports 0-3
	// in the paper's model).
	ScalarALU Class = iota
	// VecALU is a SIMD calculation instruction such as padds, psubs,
	// pmax, vpand, vpor (ports 0-2).
	VecALU
	// VecShuffle is a SIMD permute/shuffle (ports 0-2, but modeled
	// separately so ablations can restrict it to a single port, as on
	// real Skylake where shuffles issue only on port 5).
	VecShuffle
	// Load is a memory read, scalar or vector (ports 4-5).
	Load
	// Store is a memory write, scalar or vector (ports 6-7).
	Store
	// Branch is a control-flow instruction; it occupies a scalar ALU
	// port and contributes to bad speculation through the configured
	// misprediction ratio.
	Branch
	// Nop retires without needing an execution port (e.g. register
	// moves eliminated at rename). It still consumes an issue slot.
	Nop
)

// NumClasses is the count of distinct instruction classes.
const NumClasses = int(Nop) + 1

var classNames = [NumClasses]string{
	"scalar-alu", "vec-alu", "vec-shuffle", "load", "store", "branch", "nop",
}

// String returns the lower-case name of the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// NoDep marks an unused dependency slot in Inst.Deps.
const NoDep int32 = -1

// Inst is one dynamic instruction in a trace.
//
// Deps holds up to three indices of earlier instructions in the same trace
// whose results this instruction consumes; unused slots are NoDep. Three
// slots cover every operation the engine emits (two register sources plus
// a memory or mask dependency).
type Inst struct {
	Class    Class
	Mnemonic string
	// Bytes is the number of data bytes moved for Load/Store classes
	// (used for register<->L1 bandwidth accounting); zero otherwise.
	Bytes int32
	// Addr is the byte address touched by Load/Store classes.
	Addr int64
	Deps [3]int32
}

// Recorder accumulates a dynamic trace. The zero value is ready to use.
type Recorder struct {
	insts []Inst
}

// NewRecorder returns a Recorder with capacity for n instructions.
func NewRecorder(n int) *Recorder {
	return &Recorder{insts: make([]Inst, 0, n)}
}

// Emit appends inst and returns its index in the trace.
func (r *Recorder) Emit(inst Inst) int {
	r.insts = append(r.insts, inst)
	return len(r.insts) - 1
}

// Len reports the number of recorded instructions.
func (r *Recorder) Len() int { return len(r.insts) }

// Insts exposes the underlying slice; callers must not mutate it.
func (r *Recorder) Insts() []Inst { return r.insts }

// Mix summarizes the instruction-class composition of a trace.
type Mix struct {
	Count      [NumClasses]int
	Total      int
	LoadBytes  int64
	StoreBytes int64
}

// MixOf computes the class mix of insts.
func MixOf(insts []Inst) Mix {
	var m Mix
	for i := range insts {
		in := &insts[i]
		m.Count[in.Class]++
		m.Total++
		switch in.Class {
		case Load:
			m.LoadBytes += int64(in.Bytes)
		case Store:
			m.StoreBytes += int64(in.Bytes)
		}
	}
	return m
}

// String renders the mix as "class=count" pairs for debugging.
func (m Mix) String() string {
	s := ""
	for c := 0; c < NumClasses; c++ {
		if m.Count[c] == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", Class(c), m.Count[c])
	}
	return s
}

// Window returns a copy of insts[lo:hi] with dependency indices rebased
// to the window: deps pointing before lo are dropped (treated as already
// satisfied). It lets a sub-trace — one pipeline stage, one decoder phase
// — be simulated in isolation for per-module attribution; boundary
// dependencies and warm-cache effects are forfeited, so windowed cycle
// counts are attribution estimates, not exact partitions of the full-run
// total.
func Window(insts []Inst, lo, hi int) []Inst {
	out := make([]Inst, hi-lo)
	for i := range out {
		in := insts[lo+i]
		for d := range in.Deps {
			if in.Deps[d] >= 0 {
				if r := in.Deps[d] - int32(lo); r >= 0 {
					in.Deps[d] = r
				} else {
					in.Deps[d] = NoDep
				}
			}
		}
		out[i] = in
	}
	return out
}

// Deps3 packs up to three dependency indices into the fixed array used by
// Inst, filling unused slots with NoDep.
func Deps3(deps ...int) [3]int32 {
	d := [3]int32{NoDep, NoDep, NoDep}
	for i, v := range deps {
		if i >= 3 {
			break
		}
		if v >= 0 {
			d[i] = int32(v)
		}
	}
	return d
}
