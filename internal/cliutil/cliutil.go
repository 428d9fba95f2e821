// Package cliutil centralizes the flag vocabulary of the command-line
// front-ends, so every binary accepts the same spellings and prints the
// same error messages: vranpipe's width, mechanism and protocol parsers
// (the paper path, which compares every width and strategy), and the
// runtime and chaos flag sets of the serving binaries
// vranserve, vranshard and vrancoord, which build the one W512/APCM
// decoder and have no width or mechanism flag (shardflags.go).
package cliutil

import (
	"fmt"
	"strings"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/transport"
)

// WidthHelp documents the -width flag.
const WidthHelp = "SIMD width in bits: 128, 256 or 512"

// MechHelp documents the -mech flag.
const MechHelp = "arrangement mechanism: original, apcm, apcm+shuffle, apcm+rotate, shuffle, scalar"

// ProtoHelp documents the -proto flag.
const ProtoHelp = "udp or tcp"

// ParseWidth maps a -width value to the simd register width.
func ParseWidth(bits int) (simd.Width, error) {
	switch bits {
	case 128:
		return simd.W128, nil
	case 256:
		return simd.W256, nil
	case 512:
		return simd.W512, nil
	}
	return 0, fmt.Errorf("width must be 128, 256 or 512 (got %d)", bits)
}

// ParseStrategy maps a -mech value to the arrangement strategy.
func ParseStrategy(name string) (core.Strategy, error) {
	switch strings.ToLower(name) {
	case "original":
		return core.StrategyExtract, nil
	case "apcm":
		return core.StrategyAPCM, nil
	case "apcm+shuffle":
		return core.StrategyAPCMShuffle, nil
	case "apcm+rotate":
		return core.StrategyAPCMRotate, nil
	case "shuffle":
		return core.StrategyShuffle, nil
	case "scalar":
		return core.StrategyScalar, nil
	}
	return 0, fmt.Errorf("unknown mechanism %q (want original, apcm, apcm+shuffle, apcm+rotate, shuffle or scalar)", name)
}

// ParseProto maps a -proto value to the transport protocol.
func ParseProto(name string) (transport.Proto, error) {
	switch strings.ToLower(name) {
	case "udp":
		return transport.UDP, nil
	case "tcp":
		return transport.TCP, nil
	}
	return 0, fmt.Errorf("protocol must be udp or tcp (got %q)", name)
}
