package cliutil

import (
	"flag"
	"strings"
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/transport"
)

func TestParseWidth(t *testing.T) {
	for bits, want := range map[int]simd.Width{128: simd.W128, 256: simd.W256, 512: simd.W512} {
		got, err := ParseWidth(bits)
		if err != nil || got != want {
			t.Errorf("ParseWidth(%d) = %v, %v", bits, got, err)
		}
	}
	if _, err := ParseWidth(64); err == nil {
		t.Error("ParseWidth(64) should fail")
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]core.Strategy{
		"original":     core.StrategyExtract,
		"apcm":         core.StrategyAPCM,
		"APCM":         core.StrategyAPCM, // case-insensitive
		"apcm+shuffle": core.StrategyAPCMShuffle,
		"apcm+rotate":  core.StrategyAPCMRotate,
		"shuffle":      core.StrategyShuffle,
		"scalar":       core.StrategyScalar,
	}
	for name, want := range cases {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseStrategy("avx1024"); err == nil {
		t.Error("unknown mechanism should fail")
	}
}

// TestServingFlagsByRole pins the shared flags each serving role
// registers: a runtime binary owns the decode-path chaos sites and no
// fronthaul link, the coordinator the link sites and no decoder, and
// neither has a width or mechanism flag.
func TestServingFlagsByRole(t *testing.T) {
	names := func(register func(*flag.FlagSet)) string {
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		register(fs)
		var out []string
		fs.VisitAll(func(f *flag.Flag) { out = append(out, f.Name) })
		return strings.Join(out, " ")
	}
	runtime := names(func(fs *flag.FlagSet) {
		RegisterRuntime(fs)
		RegisterChaos(fs, DecodeChaos)
	})
	if want := "cells chaos chaos-corrupt chaos-crc class deadline harq-retries iters k queue workers"; runtime != want {
		t.Errorf("runtime binaries register\n  %s\nwant\n  %s", runtime, want)
	}
	coord := names(func(fs *flag.FlagSet) {
		RegisterChaos(fs, LinkChaos)
	})
	if want := "chaos chaos-linkdelay chaos-linkdrop"; coord != want {
		t.Errorf("the coordinator registers\n  %s\nwant\n  %s", coord, want)
	}
}

// TestServingConfig: the runtime flags resolve to the W512/APCM build
// with the flags' values laid over ran's defaults, and a chaos role arms
// only its own sites.
func TestServingConfig(t *testing.T) {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	rf := RegisterRuntime(fs)
	cf := RegisterChaos(fs, DecodeChaos)
	if err := fs.Parse([]string{"-cells", "2", "-class", "urllc,embb", "-chaos", "-chaos-crc", "1"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := rf.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != simd.W512 || cfg.Strategy != core.StrategyAPCM || cfg.Cells != 2 ||
		len(cfg.SLA.Classes) != 2 || cfg.HARQ.MaxRetries != 3 {
		t.Errorf("config %+v", cfg)
	}
	inj := cf.Injector(1)
	if !inj.ForceCRCFail() || inj.DropFrame() {
		t.Error("decode-chaos injector: want the crc site armed at rate 1 and no link site")
	}
	if (&ChaosFlags{On: new(bool)}).Injector(1) != nil {
		t.Error("injector built without -chaos")
	}
	rf.Class = new(string)
	*rf.Class = "urllc,bulk"
	if _, err := rf.Config(); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestParseShardAddrs(t *testing.T) {
	if a, err := ParseShardAddrs(" 127.0.0.1:7101,,h:2 "); err != nil || strings.Join(a, " ") != "127.0.0.1:7101 h:2" {
		t.Errorf("ParseShardAddrs = %v, %v", a, err)
	}
	for _, bad := range []string{"", " , ", "nohost"} {
		if _, err := ParseShardAddrs(bad); err == nil {
			t.Errorf("ParseShardAddrs(%q) accepted", bad)
		}
	}
}

func TestParseProto(t *testing.T) {
	if p, err := ParseProto("udp"); err != nil || p != transport.UDP {
		t.Errorf("udp: %v, %v", p, err)
	}
	if p, err := ParseProto("TCP"); err != nil || p != transport.TCP {
		t.Errorf("TCP: %v, %v", p, err)
	}
	if _, err := ParseProto("sctp"); err == nil {
		t.Error("sctp should fail")
	}
}
