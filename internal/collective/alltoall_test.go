package collective

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/synth"
)

// alltoallInput builds rank's send buffer with bytes unique per (src, dst,
// offset) triple, so any misrouted or misplaced block changes the output.
func alltoallInput(rank, p, blk int) []byte {
	send := make([]byte, p*blk)
	for d := 0; d < p; d++ {
		for i := 0; i < blk; i++ {
			send[d*blk+i] = byte(rank*31 + d*7 + i)
		}
	}
	return send
}

// alltoallExpected is the contract: recv block s on rank me holds the bytes
// src rank s addressed to me.
func alltoallExpected(me, p, blk int) []byte {
	recv := make([]byte, p*blk)
	for s := 0; s < p; s++ {
		for i := 0; i < blk; i++ {
			recv[s*blk+i] = byte(s*31 + me*7 + i)
		}
	}
	return recv
}

// TestAlltoallLegacyContract pins the reference loop itself against the
// closed-form expected output before anything is equivalence-tested to it.
func TestAlltoallLegacyContract(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
		const blk = 24
		err := mpi.Run(p, func(c *mpi.Comm) error {
			recv := make([]byte, p*blk)
			if err := refAlltoall(c, alltoallInput(c.Rank(), p, blk), recv); err != nil {
				return err
			}
			if !bytes.Equal(recv, alltoallExpected(c.Rank(), p, blk)) {
				return fmt.Errorf("rank %d: legacy alltoall output violates the contract", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestAlltoallFrontDoorMatchesLegacy drives the front door with no synth
// table — the registry baseline picks Bruck below the per-pair threshold and
// pairwise exchange above — and requires byte-identical output to the
// hand-written reference loop on both sides of the switch point.
func TestAlltoallFrontDoorMatchesLegacy(t *testing.T) {
	for _, p := range []int{1, 4, 7, 8, 16} {
		for _, blk := range []int{16, 2048} {
			err := mpi.Run(p, func(c *mpi.Comm) error {
				send := alltoallInput(c.Rank(), p, blk)
				got := make([]byte, p*blk)
				if err := Alltoall(c, send, got); err != nil {
					return fmt.Errorf("front door: %w", err)
				}
				want := make([]byte, p*blk)
				if err := refAlltoall(c, send, want); err != nil {
					return fmt.Errorf("legacy: %w", err)
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("rank %d: front door output differs from legacy", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d blk=%d: %v", p, blk, err)
			}
		}
	}
}

// TestExecuteAlltoallAllBuilders runs every registered all-to-all base
// builder plus the torus-native round-robin through the schedule executor
// and requires byte-identity with the reference loop.
func TestExecuteAlltoallAllBuilders(t *testing.T) {
	fam, err := sched.FamilyAlltoall.Desc()
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		label string
		p     int
		build func() (*sched.Schedule, error)
	}
	var cases []tc
	for _, name := range fam.BuilderNames() {
		for _, p := range []int{4, 6, 8} {
			name, p := name, p
			cases = append(cases, tc{fmt.Sprintf("%s/p=%d", name, p), p,
				func() (*sched.Schedule, error) { return fam.Build(name, p) }})
		}
	}
	for _, dims := range [][]int{{2, 4}, {2, 2, 2}, {3, 3}} {
		dims := dims
		p := 1
		for _, n := range dims {
			p *= n
		}
		cases = append(cases, tc{fmt.Sprintf("torus-rr/%v", dims), p,
			func() (*sched.Schedule, error) { return fam.TorusBuilder(dims) }})
	}
	for _, c0 := range cases {
		t.Run(c0.label, func(t *testing.T) {
			s, err := c0.build()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := sched.CompileCached(s)
			if err != nil {
				t.Fatal(err)
			}
			const blk = 16
			p := c0.p
			err = mpi.Run(p, func(c *mpi.Comm) error {
				send := alltoallInput(c.Rank(), p, blk)
				got := make([]byte, p*blk)
				if err := ExecuteAlltoall(c, prog, send, got); err != nil {
					return err
				}
				if !bytes.Equal(got, alltoallExpected(c.Rank(), p, blk)) {
					return fmt.Errorf("rank %d: executor output violates the alltoall contract", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFamilyRuntimeEquivalence is the registry-wide equivalence suite: every
// registered family has a runtime entry, and every base builder of every
// family produces executor output byte-identical to the family's hand-written
// legacy loop under the normalized harness contract. Builders that reject a
// shape (recursive doubling on non-powers of two, neighbor exchange on odd
// sizes) are skipped at that shape — the error is the contract.
func TestFamilyRuntimeEquivalence(t *testing.T) {
	fams := sched.Families()
	if len(fams) != len(familyRuntimes) {
		t.Fatalf("%d families registered in sched, %d runtimes in collective", len(fams), len(familyRuntimes))
	}
	for _, fam := range fams {
		rt, ok := familyRuntimes[fam.ID]
		if !ok {
			t.Fatalf("family %q has no runtime registration", fam.Name)
		}
		for _, name := range fam.BuilderNames() {
			for _, p := range []int{4, 6, 8} {
				s, err := fam.Build(name, p)
				if err != nil {
					continue // builder rejects this shape by contract
				}
				prog, err := sched.CompileCached(s)
				if err != nil {
					t.Fatalf("%s/%s p=%d: compile: %v", fam.Name, name, p, err)
				}
				const blk = 16
				label := fmt.Sprintf("%s/%s/p=%d", fam.Name, name, p)
				err = mpi.Run(p, func(c *mpi.Comm) error {
					in := alltoallInput(c.Rank(), p, blk)[:rt.inBytes(p, blk)]
					got := make([]byte, rt.outBytes(p, blk))
					if err := rt.exec(c, prog, in, got); err != nil {
						return fmt.Errorf("exec: %w", err)
					}
					want := make([]byte, rt.outBytes(p, blk))
					if err := rt.legacy(c, in, want); err != nil {
						return fmt.Errorf("legacy: %w", err)
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("rank %d: executor output differs from the legacy loop", c.Rank())
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
}

// reorderMapping builds the fuzzed rank permutations: identity, reversal, or
// rotation by one.
func reorderMapping(p int, mode uint8) core.Mapping {
	m := make(core.Mapping, p)
	for j := range m {
		switch mode % 3 {
		case 0:
			m[j] = j
		case 1:
			m[j] = p - 1 - j
		default:
			m[j] = (j + 1) % p
		}
	}
	return m
}

// alltoallTable builds a one-entry synth table serving the given recipe for
// (alltoall, p) at the aggregate payload, so the front door and the
// reordered path execute the chosen builder.
func alltoallTable(t testing.TB, rec synth.Recipe, p, payload int) *synth.Selector {
	t.Helper()
	sch, err := rec.Materialize(synth.Alltoall, p)
	if err != nil {
		t.Fatalf("materialize %s: %v", rec, err)
	}
	tab := &synth.Table{Topology: "alltoall-test"}
	tab.Put(synth.Entry{
		Family:       synth.Alltoall.String(),
		P:            p,
		SizeBucket:   synth.SizeBucket(synth.Alltoall.BucketBytes(p, payload)),
		PayloadBytes: payload,
		Recipe:       rec,
		Schedule:     sched.Fingerprint(sch),
		Name:         sch.Name,
	})
	return synth.NewSelector(tab)
}

// TestReorderedAlltoall: the reordered all-to-all keeps the original-rank
// buffer contract over every builder x mapping combination — the Placement
// relabelling of the pair-block space costs no correctness.
func TestReorderedAlltoall(t *testing.T) {
	const p, blk = 8, 32
	recipes := []synth.Recipe{
		{Alg: "pairwise-alltoall"},
		{Alg: "bruck-alltoall"},
		{Alg: "torus-native", Dims: []int{2, 4}},
	}
	for _, rec := range recipes {
		for mode := uint8(0); mode < 3; mode++ {
			sel := alltoallTable(t, rec, p, p*blk)
			m := reorderMapping(p, mode)
			err := mpi.Run(p, func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					Configure(c, Config{Synth: sel})
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				r, err := NewReordered(c, m, sched.NoOrderFix)
				if err != nil {
					return err
				}
				// The caller's original rank is what the buffer contract is
				// written against.
				meOld := m[r.Comm().Rank()]
				send := alltoallInput(meOld, p, blk)
				got := make([]byte, p*blk)
				if err := r.Alltoall(send, got); err != nil {
					return err
				}
				if !bytes.Equal(got, alltoallExpected(meOld, p, blk)) {
					return fmt.Errorf("original rank %d: reordered alltoall violates the original-order contract", meOld)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s mode=%d: %v", rec, mode, err)
			}
		}
	}
}

// FuzzExecutorAlltoall replays fuzzer-chosen (rank count, block size,
// builder, reordering) combinations: the executor must stay byte-identical
// to the hand-written pairwise loop on the plain communicator and keep the
// original-rank contract through a reordered one.
func FuzzExecutorAlltoall(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(0), uint8(0))
	f.Add(uint8(8), uint8(1), uint8(1), uint8(1))
	f.Add(uint8(6), uint8(16), uint8(2), uint8(2))
	f.Add(uint8(12), uint8(3), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, pRaw, blkRaw, algRaw, modeRaw uint8) {
		p := int(pRaw)%12 + 1
		blk := int(blkRaw)%32 + 1
		rec := synth.Recipe{Alg: "pairwise-alltoall"}
		switch algRaw % 3 {
		case 1:
			rec = synth.Recipe{Alg: "bruck-alltoall"}
		case 2:
			if p%2 != 0 {
				p++
			}
			rec = synth.Recipe{Alg: "torus-native", Dims: []int{2, p / 2}}
		}
		sch, err := rec.Materialize(synth.Alltoall, p)
		if err != nil {
			t.Skipf("builder rejects shape: %v", err)
		}
		prog, err := sched.CompileCached(sch)
		if err != nil {
			t.Fatal(err)
		}
		m := reorderMapping(p, modeRaw)
		sel := alltoallTable(t, rec, p, p*blk)
		err = mpi.Run(p, func(c *mpi.Comm) error {
			send := alltoallInput(c.Rank(), p, blk)
			got := make([]byte, p*blk)
			if err := ExecuteAlltoall(c, prog, send, got); err != nil {
				return err
			}
			want := make([]byte, p*blk)
			if err := refAlltoall(c, send, want); err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d: executor differs from legacy", c.Rank())
			}

			if c.Rank() == 0 {
				Configure(c, Config{Synth: sel})
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			r, err := NewReordered(c, m, sched.NoOrderFix)
			if err != nil {
				return err
			}
			meOld := m[r.Comm().Rank()]
			reGot := make([]byte, p*blk)
			if err := r.Alltoall(alltoallInput(meOld, p, blk), reGot); err != nil {
				return err
			}
			if !bytes.Equal(reGot, alltoallExpected(meOld, p, blk)) {
				return fmt.Errorf("original rank %d: reordered executor violates the contract", meOld)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
