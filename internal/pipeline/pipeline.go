// Package pipeline wires the full vRAN software chain of the paper's
// Figure 1: a UE-side transmitter (traffic generator, PDCP/RLC/MAC,
// channel coding, OFDM), the eNB receive/transmit processing that the
// paper profiles (the traced part), and the EPC tunnel hops. One Run
// produces both a functional outcome (did the payload survive?) and a
// µop trace with per-module marks that the timing simulator turns into
// the per-module CPU times, IPCs and top-down breakdowns of Figures 3-6
// and the packet latencies of Figure 13.
package pipeline

import (
	"fmt"

	"vransim/internal/cache"
	"vransim/internal/core"
	"vransim/internal/l2"
	"vransim/internal/phy"
	"vransim/internal/simd"
	"vransim/internal/telemetry"
	"vransim/internal/trace"
	"vransim/internal/transport"
	"vransim/internal/turbo"
	"vransim/internal/uarch"
)

// Config parameterizes one pipeline run.
type Config struct {
	// W is the SIMD register width the eNB software is built for.
	W simd.Width
	// Strategy selects the data arrangement mechanism.
	Strategy core.Strategy
	// Platform is the CPU the eNB runs on.
	Platform uarch.Platform
	// Proto and PacketBytes describe the generated traffic.
	Proto       transport.Proto
	PacketBytes int
	// Mod is the constellation; Iters the turbo iteration budget.
	Mod   phy.Modulation
	Iters int
	// SNRdB is the radio channel quality.
	SNRdB float64
	// Seed makes the run deterministic.
	Seed int64
}

// DefaultConfig returns a 5 MHz-class configuration for the given
// traffic.
func DefaultConfig(w simd.Width, s core.Strategy, proto transport.Proto, packetBytes int) Config {
	return Config{
		W: w, Strategy: s, Platform: uarch.WimpyPlatform(),
		Proto: proto, PacketBytes: packetBytes,
		// 6 dB keeps rate-1/3 QPSK comfortably decodable while leaving
		// the decoder genuinely iterating (2-4 of the allowed 4
		// iterations), as an operating base station would.
		Mod: phy.QPSK, Iters: 4, SNRdB: 6, Seed: 1,
	}
}

// StageTime is the attributed cost of one pipeline stage.
type StageTime struct {
	Name   string
	Insts  int
	Cycles int64
	Us     float64
	IPC    float64
	TD     uarch.TopDown
	// StoreBW is the register->L1 store bandwidth in bits/cycle.
	StoreBW float64
}

// Result is the outcome of one pipeline run.
type Result struct {
	// Stages aggregates the trace windows by stage name, in first-
	// appearance order.
	Stages []StageTime
	// Total is the simulation of the entire eNB trace (the authoritative
	// end-to-end processing cost; stage windows are attribution
	// estimates).
	Total uarch.Result
	// TotalUs is the eNB processing time plus the fixed EPC path delay.
	TotalUs float64
	// PayloadOK reports whether the transported packet survived
	// end-to-end; CRCOK whether the transport-block CRC held.
	PayloadOK bool
	CRCOK     bool
	// TBBytes is the transport-block size carrying the packet.
	TBBytes int
	// CodeBlocks is the number of turbo code blocks per TB.
	CodeBlocks int
	// InfoBits is the total information bits decoded.
	InfoBits int
}

// StageUs returns the attributed time of the named stage (0 if absent).
func (r *Result) StageUs(name string) float64 {
	for _, s := range r.Stages {
		if s.Name == name {
			return s.Us
		}
	}
	return 0
}

// Stage returns the named stage record.
func (r *Result) Stage(name string) (StageTime, bool) {
	for _, s := range r.Stages {
		if s.Name == name {
			return s, true
		}
	}
	return StageTime{}, false
}

// mark is a named trace window.
type mark struct {
	name   string
	lo, hi int
}

// runner carries the per-run state.
type runner struct {
	cfg   Config
	eng   *simd.Engine
	marks []mark
}

func (r *runner) section(name string, f func()) {
	lo := r.eng.TraceLen()
	f()
	r.marks = append(r.marks, mark{name: name, lo: lo, hi: r.eng.TraceLen()})
}

// RunUplink executes one uplink packet: UE builds and transmits it, the
// eNB (traced) receives, decodes and forwards it through the EPC.
func RunUplink(cfg Config) (*Result, error) {
	r := &runner{cfg: cfg}
	mem := simd.NewMemory(64 << 20)
	r.eng = simd.NewEngine(cfg.W, mem, trace.NewRecorder(1<<20))

	// ---- UE side (functional, untraced) ----
	gen := transport.NewGenerator(cfg.Proto, cfg.Seed)
	ipPacket, err := gen.Next(cfg.PacketBytes)
	if err != nil {
		return nil, err
	}
	pdcp := &l2.PDCP{}
	rlc := l2.NewRLC(9000)
	pdu := pdcp.Encapsulate(ipPacket)
	segs := rlc.Segment(pdu)
	var rlcPDUs [][]byte
	for _, s := range segs {
		rlcPDUs = append(rlcPDUs, s.Marshal())
	}
	tbsBytes := 0
	for _, p := range rlcPDUs {
		tbsBytes += l2.MACHeaderLen + len(p)
	}
	mac := l2.NewMAC(tbsBytes)
	tb, used := mac.BuildTB(rlcPDUs)
	if used != len(rlcPDUs) {
		return nil, fmt.Errorf("pipeline: MAC packed %d/%d PDUs", used, len(rlcPDUs))
	}

	// Channel coding: CRC24A, segmentation, per-block turbo + rate
	// matching at rate ~1/3.
	tbBits := append([]byte(nil), tb.Bits...)
	withCRC := phy.AppendCRC(tbBits, phy.CRC24APoly, 24)
	// Lane-filling segmentation: split the TB so the lane-parallel
	// decoder fills every register lane group of the configured width.
	seg, err := phy.SegmentLaneFill(len(withCRC), turbo.BlocksPerRegister(cfg.W))
	if err != nil {
		return nil, err
	}
	blocks, err := seg.Split(withCRC)
	if err != nil {
		return nil, err
	}
	code, err := turbo.NewCode(seg.K)
	if err != nil {
		return nil, err
	}
	ePerBlock := 3 * seg.K // transmitted bits per block (~rate 1/3)
	d := seg.K + 4         // rate-matcher stream length (K + tail share)
	rm := phy.NewRateMatcher(d)
	var coded []byte
	codewords := make([]*turbo.Codeword, len(blocks))
	for i, blk := range blocks {
		cw, err := code.Encode(blk)
		if err != nil {
			return nil, err
		}
		codewords[i] = cw
		s0, s1, s2 := padStreams(cw, d)
		sel, err := rm.Match(s0, s1, s2, ePerBlock, 0)
		if err != nil {
			return nil, err
		}
		coded = append(coded, sel...)
	}

	// Scramble, modulate, OFDM, channel.
	scr := phy.NewScrambler(phy.ScrambleInit(0x1234, 0, 2, 7), len(coded))
	scrambled := scr.Apply(append([]byte(nil), coded...))
	bps := cfg.Mod.BitsPerSymbol()
	padBits := (-len(scrambled)%bps + bps) % bps
	scrambled = append(scrambled, make([]byte, padBits)...)
	syms, err := phy.Modulate(scrambled, cfg.Mod)
	if err != nil {
		return nil, err
	}
	ofdm, err := phy.NewOFDM(512, 300, 36)
	if err != nil {
		return nil, err
	}
	ch := phy.NewAWGNChannel(cfg.SNRdB, cfg.Seed+17)
	var rxSamples [][]phy.IQ
	for off := 0; off < len(syms); off += ofdm.UsedCarriers {
		end := off + ofdm.UsedCarriers
		grid := make([]phy.IQ, ofdm.UsedCarriers)
		if end > len(syms) {
			copy(grid, syms[off:])
		} else {
			copy(grid, syms[off:end])
		}
		tx, err := ofdm.Modulate(grid)
		if err != nil {
			return nil, err
		}
		rxSamples = append(rxSamples, ch.Apply(tx))
	}

	// ---- eNB side (traced) ----
	res := &Result{TBBytes: tb.Bytes, CodeBlocks: seg.C, InfoBits: seg.C * seg.K}

	// OFDM demodulation (scalar FFT: the "do OFDM" module).
	rxOFDM := *ofdm
	rxOFDM.Eng = r.eng
	var rxSyms []phy.IQ
	r.section("ofdm", func() {
		for _, s := range rxSamples {
			out, err2 := rxOFDM.Demodulate(s)
			if err2 != nil {
				err = err2
				return
			}
			rxSyms = append(rxSyms, out...)
		}
	})
	if err != nil {
		return nil, err
	}

	// QAM soft demodulation.
	var llr []int16
	r.section("demod", func() {
		dem := phy.Demodulator{M: cfg.Mod, NoiseVar: ofdm.SubcarrierNoiseVar(ch.NoiseVar()), Scale: 8, Eng: r.eng}
		llr = dem.Demodulate(rxSyms)
	})
	llr = llr[:len(coded)]
	clampLLRs(llr, turbo.LLRLimit-1)

	// Descrambling.
	r.section("descramble", func() {
		scr2 := phy.NewScrambler(phy.ScrambleInit(0x1234, 0, 2, 7), len(llr))
		scr2.Eng = r.eng
		scr2.ApplyLLR(llr)
	})

	// DCI decode for the uplink grant (one control message per TTI).
	r.section("dci", func() {
		dci := phy.DCI{Payload: make([]byte, 27)}
		codedDCI := phy.EncodeDCI(dci)
		dciLLR := make([]int16, len(codedDCI))
		for i, b := range codedDCI {
			if b == 0 {
				dciLLR[i] = 16
			} else {
				dciLLR[i] = -16
			}
		}
		dec := &phy.TBCCDecoder{Eng: r.eng}
		if _, ok, err2 := phy.DecodeDCI(dciLLR, 27, dec); err2 != nil || !ok {
			err = fmt.Errorf("pipeline: DCI decode failed: %v", err2)
		}
	})
	if err != nil {
		return nil, err
	}

	// Rate de-matching, per block.
	rmRx := phy.NewRateMatcher(d)
	rmRx.Eng = r.eng
	type blockLLR struct{ w *turbo.LLRWord }
	blockWords := make([]blockLLR, seg.C)
	r.section("ratematch", func() {
		for i := 0; i < seg.C; i++ {
			part := llr[i*ePerBlock : (i+1)*ePerBlock]
			d0, d1, d2 := rmRx.Dematch(part, 0)
			w := turbo.NewLLRWord(seg.K)
			copy(w.Sys, d0[:seg.K])
			copy(w.P1, d1[:seg.K])
			copy(w.P2, d2[:seg.K])
			// Tail positions ride at the end of streams 0/1.
			for j := 0; j < 3; j++ {
				w.TailSys[j] = d0[seg.K+j]
				w.TailP1[j] = d1[seg.K+j]
			}
			clampWordLLRs(w, turbo.LLRLimit-1)
			blockWords[i] = blockLLR{w: w}
		}
	})

	// Turbo decoding with the configured arrangement mechanism. Blocks
	// are decoded in lane-parallel batches: an AVX256 build carries two
	// code blocks per register, AVX512 four — the way wider SIMD
	// actually accelerates the recursion-heavy calculation (DESIGN.md).
	// The decoder emits its own arrangement/gamma/alpha/beta/ext marks.
	// The whole decode is additionally wrapped in one umbrella section
	// named with the serving runtime's shared stage vocabulary
	// (telemetry.StageDecode), so an offline vranpipe per-stage report
	// and a live vranserve /metrics scrape can be diffed stage-by-stage;
	// the decoder's own sub-phase marks keep their finer attribution.
	decoded := make([][]byte, 0, seg.C)
	crcAll := true
	batch := turbo.BlocksPerRegister(cfg.W)
	r.section(telemetry.StageDecode, func() {
		for i := 0; i < seg.C; i += batch {
			end := i + batch
			if end > seg.C {
				end = seg.C
			}
			words := make([]*turbo.LLRWord, 0, end-i)
			for j := i; j < end; j++ {
				words = append(words, blockWords[j].w)
			}
			dec := turbo.NewMultiSIMDDecoder(code)
			dec.MaxIters = cfg.Iters
			bits, _, err2 := dec.Decode(r.eng, core.ByStrategy(cfg.Strategy), words)
			if err2 != nil {
				err = err2
				return
			}
			decoded = append(decoded, bits...)
			for _, m := range dec.Marks {
				r.marks = append(r.marks, mark{name: m.Name, lo: m.Lo, hi: m.Hi})
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// Reassemble the transport block, verify CRC24A, walk up the stack.
	var rxIP []byte
	r.section("l2", func() {
		joined, blocksOK, err2 := seg.Join(decoded)
		if err2 != nil {
			err = err2
			return
		}
		crcAll = blocksOK && phy.CheckCRC(joined, phy.CRC24APoly, 24)
		rxTB := l2.TransportBlock{Bits: joined[:len(joined)-24], Bytes: tb.Bytes}
		rxMAC := l2.NewMAC(tb.Bytes)
		pdus, err2 := rxMAC.ParseTB(rxTB)
		if err2 != nil {
			err = err2
			return
		}
		rxRLC := l2.NewRLC(9000)
		var sdu []byte
		for _, p := range pdus {
			segp, err3 := l2.UnmarshalRLC(p)
			if err3 != nil {
				err = err3
				return
			}
			if out := rxRLC.Deliver(segp); out != nil {
				sdu = out
			}
		}
		rxPDCP := &l2.PDCP{Eng: r.eng}
		ip, _, err2 := rxPDCP.Decapsulate(sdu)
		if err2 != nil {
			err = err2
			return
		}
		rxIP = ip
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: L2 receive failed (CRC ok=%v): %w", crcAll, err)
	}

	// EPC tunnel hops (functional; fixed latency added below).
	epc := &transport.EPCPath{SGWTEID: 0x10, PGWTEID: 0x20, HopDelayUs: 30}
	var delivered []byte
	r.section("gtp", func() {
		out, err2 := epc.Traverse(rxIP)
		if err2 != nil {
			err = err2
			return
		}
		delivered = out
		// Tunnel encap/decap cost: header writes per hop.
		for h := 0; h < 2; h++ {
			r.eng.EmitScalarStore("mov", int64(h*64), 8)
			r.eng.EmitScalarLoad("mov", int64(h*64), 8)
			r.eng.EmitScalar("add", 4)
		}
	})
	if err != nil {
		return nil, err
	}

	res.CRCOK = crcAll
	res.PayloadOK = bytesEqual(delivered, ipPacket)
	r.finish(res, epc.PathLatencyUs())
	return res, nil
}

// padStreams extends the three codeword streams (with tail bits folded
// into streams 0/1) to the rate-matcher length d.
func padStreams(cw *turbo.Codeword, d int) (s0, s1, s2 []byte) {
	s0 = make([]byte, d)
	s1 = make([]byte, d)
	s2 = make([]byte, d)
	copy(s0, cw.Sys)
	copy(s1, cw.P1)
	copy(s2, cw.P2)
	for j := 0; j < 3; j++ {
		s0[len(cw.Sys)+j] = cw.TailSys[j]
		s1[len(cw.P1)+j] = cw.TailP1[j]
	}
	return
}

func clampLLRs(llr []int16, lim int16) {
	for i := range llr {
		if llr[i] > lim {
			llr[i] = lim
		}
		if llr[i] < -lim {
			llr[i] = -lim
		}
	}
}

func clampWordLLRs(w *turbo.LLRWord, lim int16) {
	clampLLRs(w.Sys, lim)
	clampLLRs(w.P1, lim)
	clampLLRs(w.P2, lim)
	clampLLRs(w.TailSys[:], lim)
	clampLLRs(w.TailP1[:], lim)
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// finish runs the timing simulations: the full trace for the total, and
// one rebased window per stage name for attribution.
func (r *runner) finish(res *Result, extraUs float64) {
	insts := r.eng.Recorder().Insts()
	hier := cache.NewHierarchy(r.cfg.Platform.Caches)
	res.Total = uarch.NewSimulator(r.cfg.Platform.Core, hier).Run(insts)
	res.TotalUs = res.Total.Microseconds() + extraUs

	// Simulate each window in isolation and aggregate by stage name,
	// preserving first-appearance order. Each window gets a fresh cache
	// (cold-start effects are shared by all stages and small relative
	// to window sizes).
	order := []string{}
	agg := map[string]*StageTime{}
	for _, m := range r.marks {
		if m.hi <= m.lo {
			continue
		}
		w := trace.Window(insts, m.lo, m.hi)
		sim := uarch.Simulate(w, r.cfg.Platform.Core, &r.cfg.Platform.Caches)
		st, ok := agg[m.name]
		if !ok {
			st = &StageTime{Name: m.name}
			agg[m.name] = st
			order = append(order, m.name)
		}
		weight := float64(sim.Cycles)
		total := float64(st.Cycles) + weight
		if total > 0 {
			blend := func(old, add float64) float64 {
				return (old*float64(st.Cycles) + add*weight) / total
			}
			st.TD = uarch.TopDown{
				Retiring:      blend(st.TD.Retiring, sim.TopDown.Retiring),
				FrontendBound: blend(st.TD.FrontendBound, sim.TopDown.FrontendBound),
				BadSpec:       blend(st.TD.BadSpec, sim.TopDown.BadSpec),
				BackendBound:  blend(st.TD.BackendBound, sim.TopDown.BackendBound),
				CoreBound:     blend(st.TD.CoreBound, sim.TopDown.CoreBound),
				MemoryBound:   blend(st.TD.MemoryBound, sim.TopDown.MemoryBound),
			}
			st.StoreBW = blend(st.StoreBW, sim.StoreBitsPerCycle())
		}
		st.Insts += len(w)
		st.Cycles += sim.Cycles
		st.Us += sim.Microseconds()
	}
	for _, name := range order {
		st := agg[name]
		if st.Cycles > 0 {
			st.IPC = float64(st.Insts) / float64(st.Cycles)
		}
		res.Stages = append(res.Stages, *st)
	}
}
