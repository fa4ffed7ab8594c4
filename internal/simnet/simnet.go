// Package simnet prices communication schedules on a modelled cluster: it
// substitutes for the wall clock of the paper's GPC testbed, which this
// reproduction cannot access.
//
// The model is a contention-aware latency/bandwidth (Hockney-style) model.
// Every transfer is classified by the channel between its endpoint cores —
// intra-socket shared memory, inter-socket QPI, or the InfiniBand network —
// and costs
//
//	alpha(channel) + bytes * betaEffective
//
// where betaEffective reflects both the per-stream bandwidth of the channel
// and the sharing of every resource the transfer crosses during its stage:
//
//   - each direction of each fat-tree link (trunked cables divide load),
//   - each direction of each node's inter-socket QPI interconnect,
//   - each socket's memory bandwidth (intra-node transfers are memcpy),
//   - each endpoint core (a core sends one message at a time, which
//     serialises the fan-in of linear gathers at their root).
//
// The time of a stage is the maximum over its transfers; the time of a
// schedule is the sum of its stage times plus the local shuffle epilogue.
// This first-order model deliberately ignores protocol effects
// (eager/rendezvous switches, pipelining across stages) — the paper's
// observed phenomena are products of channel heterogeneity and link sharing,
// which the model captures.
package simnet

import (
	"fmt"
	"sync"

	"repro/internal/sched"
	"repro/internal/topology"
)

// Params holds the calibrated cost-model constants. All times are seconds,
// all rates bytes/second.
type Params struct {
	// Latency (alpha) terms.
	AlphaShm    float64 // same-socket shared memory
	AlphaQPI    float64 // cross-socket, same node
	AlphaNet    float64 // inter-node base latency
	AlphaPerHop float64 // additional latency per network link crossed

	// Per-stream bandwidths: what a single message achieves unshared.
	StreamShm float64 // intra-socket copy bandwidth
	StreamQPI float64 // cross-socket copy bandwidth
	StreamNet float64 // single QDR stream

	// Shared-resource capacities.
	CapSocketMem   float64 // per-socket memory bandwidth
	CapQPIDir      float64 // per-direction QPI capacity per node
	CapNetPerCable float64 // per-direction capacity of one network cable

	// MemCopy is the local memory-copy bandwidth used for the
	// end-of-collective shuffles (read + write).
	MemCopy float64
}

// DefaultParams returns constants calibrated to the paper's testbed era:
// dual-socket Nehalem nodes (QPI ~11 GB/s per direction, ~20 GB/s per-socket
// memory bandwidth, MPI shared-memory pipelines in the 4–5 GB/s range) and
// QDR InfiniBand (~3.2 GB/s effective per stream and per cable).
func DefaultParams() Params {
	return Params{
		AlphaShm:    0.3e-6,
		AlphaQPI:    0.5e-6,
		AlphaNet:    1.5e-6,
		AlphaPerHop: 0.1e-6,

		StreamShm: 4.5e9,
		StreamQPI: 3.8e9,
		StreamNet: 3.2e9,

		CapSocketMem:   20e9,
		CapQPIDir:      11e9,
		CapNetPerCable: 3.2e9,

		MemCopy: 4e9,
	}
}

// Validate rejects non-physical parameters.
func (p *Params) Validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"AlphaShm", p.AlphaShm}, {"AlphaQPI", p.AlphaQPI}, {"AlphaNet", p.AlphaNet},
		{"StreamShm", p.StreamShm}, {"StreamQPI", p.StreamQPI}, {"StreamNet", p.StreamNet},
		{"CapSocketMem", p.CapSocketMem}, {"CapQPIDir", p.CapQPIDir},
		{"CapNetPerCable", p.CapNetPerCable}, {"MemCopy", p.MemCopy},
	} {
		if v.val <= 0 {
			return fmt.Errorf("simnet: %s must be positive, got %g", v.name, v.val)
		}
	}
	if p.AlphaPerHop < 0 {
		return fmt.Errorf("simnet: AlphaPerHop must be non-negative, got %g", p.AlphaPerHop)
	}
	return nil
}

// Machine binds a cluster model to cost parameters.
type Machine struct {
	Cluster *topology.Cluster
	Params  Params

	// scratch pools priceScratch instances (sparse.go) across pricing
	// calls, so the route and link caches warm up once per machine.
	scratch sync.Pool
}

// NewMachine builds a Machine, validating both halves.
func NewMachine(c *topology.Cluster, p Params) (*Machine, error) {
	if c == nil {
		return nil, fmt.Errorf("simnet: nil cluster")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Machine{Cluster: c, Params: p}, nil
}

// Price computes the modelled execution time of schedule s in seconds, with
// rank r placed on core layout[r] and every block blockBytes bytes. The
// schedule is compiled through the process-wide schedule cache and the
// compiled program is priced, so the cost model consumes exactly the
// artifact the generic executor runs.
func (m *Machine) Price(s *sched.Schedule, layout []int, blockBytes int) (float64, error) {
	prog, err := sched.CompileCached(s)
	if err != nil {
		return 0, err
	}
	return m.PriceProgram(prog, layout, blockBytes)
}

// PriceProgram prices a compiled program: the sum over its pricing-view
// stages (Pre stages first) of the worst transfer time per execution, times
// the stage's repeat count, plus the local shuffle epilogue. It runs on the
// pooled sparse scratch (sparse.go), so steady-state pricing of warm machines
// does not allocate.
func (m *Machine) PriceProgram(prog *sched.Program, layout []int, blockBytes int) (float64, error) {
	if err := checkBlockBytes(blockBytes); err != nil {
		return 0, err
	}
	total := 0.0
	err := m.stagePass(prog, layout, func(sc *priceScratch, _ int, st *sched.ProgStage) error {
		t, err := m.stageTime(sc, st.Transfers, layout, blockBytes)
		total += t * float64(st.Repeat)
		return err
	})
	if err != nil {
		return 0, err
	}
	return total + postCopySeconds(prog.PostCopyBlocks, float64(blockBytes), m.Params.MemCopy), nil
}

// checkBlockBytes rejects a non-positive block size.
func checkBlockBytes(blockBytes int) error {
	if blockBytes <= 0 {
		return fmt.Errorf("simnet: block size must be positive, got %d", blockBytes)
	}
	return nil
}

// postCopySeconds prices the local shuffle epilogue of blocks blocks: every
// rank shuffles in parallel, so it costs one rank's copy time.
func postCopySeconds(blocks int, blockBytes, memCopy float64) float64 {
	return float64(blocks) * blockBytes / memCopy
}
