// Package sourcesync is a from-scratch reproduction of "SourceSync: A
// Distributed Wireless Architecture for Exploiting Sender Diversity"
// (Rahul, Hassanieh, Katabi — SIGCOMM 2010) as a Go library.
//
// The paper's hardware testbed (the WiGLAN FPGA radio and an indoor office
// deployment) is replaced by a sample-level software radio: a complete
// 802.11a-style OFDM modem, a multipath/AWGN/CFO channel emulator, and a
// distributed simulation in which co-senders really detect the lead
// sender's synchronization header over their own radio channel, estimate
// delays with the paper's phase-slope method, and join transmissions that a
// receiver then jointly decodes.
//
// The three SourceSync components live in their own packages:
//
//   - internal/sls — the Symbol Level Synchronizer (§4): detection-delay
//     estimation from channel phase slopes, probe-based propagation delay
//     measurement, co-sender wait times, ACK-driven tracking, and the
//     multi-receiver min-max LP.
//   - internal/jce — the Joint Channel Estimator (§5): per-sender channel
//     estimates and shared-pilot residual phase tracking.
//   - internal/stbc — the Smart Combiner (§6): distributed Alamouti and
//     quasi-orthogonal space-time block codes.
//
// On top of the PHY, internal/lasthop implements multi-AP downlink
// diversity (§7.1) and internal/exor opportunistic routing with co-sender
// forwarding (§7.2).
//
// This package is the public face: experiment runners that regenerate every
// figure and table in the paper's evaluation (§8), plus re-exports of the
// pieces examples need. Each experiment takes a run context (RunConfig:
// the deterministic seed, the worker count and an optional progress and
// cancellation Monitor) and an options struct that holds only the
// workload's shape, and returns typed results; the cmd/ssbench binary and
// the repository-root benchmarks print them.
//
// # Parallel experiment engine
//
// The runners execute their trials on internal/engine, a deterministic
// parallel scheduler: a worker pool sized to GOMAXPROCS fans independent
// trials out across goroutines, and every trial draws its math/rand stream
// from a splitmix64-style hash of (base seed, operating-point index, trial
// index) rather than from a shared generator. Because no RNG state crosses
// trial boundaries and results are reduced in trial order, an experiment's
// output is byte-identical at every worker count — including the serial
// Workers: 1 path.
//
// The run context's Workers field (0 = one worker per CPU, 1 = serial) is
// cmd/ssbench's -workers flag; ssbench reports per-experiment wall clock so
// speedups are visible.
package sourcesync

import (
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/phy"
	"repro/internal/testbed"
)

// Re-exported configuration entry points, so example programs and library
// consumers need only this package for common tasks.

// RunConfig is the run context every experiment runner takes first: base
// seed, worker count and optional Monitor (re-export of engine.Config, so
// code outside this module can call the runners).
type RunConfig = engine.Config

// Config is the OFDM PHY profile (re-export of modem.Config).
type Config = modem.Config

// Profile80211 returns the 20 MHz / 64-subcarrier 802.11a profile.
func Profile80211() *Config { return modem.Profile80211() }

// ProfileWiGLAN returns the 128 MHz / 128-subcarrier profile modeled on the
// paper's radio platform.
func ProfileWiGLAN() *Config { return modem.ProfileWiGLAN() }

// JointFrameParams describes a joint transmission (re-export).
type JointFrameParams = phy.JointFrameParams

// JointSimConfig wires a distributed joint-transmission simulation
// (re-export).
type JointSimConfig = phy.JointSimConfig

// JointReceiver decodes joint frames (re-export).
type JointReceiver = phy.JointReceiver

// Link is a directed radio link in a simulation (re-export).
type Link = phy.Link

// CoSenderSim is a co-sender's radio/measurement state (re-export).
type CoSenderSim = phy.CoSenderSim

// Testbed is the indoor radio environment (re-export).
type Testbed = testbed.Testbed

// MeshTestbed returns the lossier environment used by the mesh experiments.
func MeshTestbed(cfg *Config) *Testbed { return testbed.Mesh(cfg) }

// DCFParams returns default 802.11 DCF timing for a profile.
func DCFParams(cfg *Config) mac.Params { return mac.Default(cfg) }

// Multipath re-exports the channel's tap-delay-line type.
type Multipath = channel.Multipath
