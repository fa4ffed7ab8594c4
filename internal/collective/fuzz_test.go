package collective

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// FuzzExecutorAllgather replays fuzzer-chosen schedule shapes through the
// generic executor on a real mpi world and checks the allgather contract
// against the expected output. Run under -race this doubles as a concurrency
// test of the shared compiled program.
func FuzzExecutorAllgather(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(8))
	f.Add(uint8(6), uint8(1), uint8(1))
	f.Add(uint8(5), uint8(2), uint8(3))
	f.Add(uint8(8), uint8(3), uint8(16))
	f.Fuzz(func(t *testing.T, pRaw, algRaw, blkRaw uint8) {
		p := int(pRaw)%12 + 1
		blk := int(blkRaw)%32 + 1
		var alg Algorithm
		switch algRaw % 4 {
		case 0:
			alg = AlgRecursiveDoubling
			q := 1
			for q*2 <= p {
				q *= 2
			}
			p = q
		case 1:
			alg = AlgRing
		case 2:
			alg = AlgBruck
		default:
			alg = AlgNeighborExchange
			if p%2 != 0 {
				p++
			}
		}
		prog, err := scheduleProgram(alg, p)
		if err != nil {
			t.Fatal(err)
		}
		err = mpi.Run(p, func(c *mpi.Comm) error {
			recv := make([]byte, p*blk)
			if err := ExecuteAllgather(c, prog, input(c.Rank(), blk), recv, nil); err != nil {
				return err
			}
			if !bytes.Equal(recv, expected(p, blk)) {
				return fmt.Errorf("rank %d: executor output violates the allgather contract", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzExecutorHierarchical replays fuzzer-chosen hierarchical compositions
// through the executor on a real world.
func FuzzExecutorHierarchical(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(0), uint8(1))
	f.Add(uint8(4), uint8(2), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, gRaw, kRaw, intraRaw, interRaw uint8) {
		g := int(gRaw)%4 + 1
		k := int(kRaw)%4 + 1
		cfg := sched.HierarchicalConfig{
			Intra: sched.IntraKind(intraRaw % 2),
			Inter: sched.InterKind(interRaw % 2),
		}
		if cfg.Inter == sched.InterRecursiveDoubling && g&(g-1) != 0 {
			return
		}
		p := g * k
		const blk = 4
		nodeOf := func(worldRank int) int { return worldRank / k } // g contiguous nodes of k ranks
		err := mpi.Run(p, func(c *mpi.Comm) error {
			recv := make([]byte, p*blk)
			if err := HierarchicalAllgather(c, input(c.Rank(), blk), recv, nodeOf, cfg); err != nil {
				return err
			}
			if !bytes.Equal(recv, expected(p, blk)) {
				return fmt.Errorf("rank %d: hierarchical executor output wrong", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
