package collective

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/synth"
)

// putRecipe materialises rec for (f, p), stores it in tab keyed at payload
// bytes, and returns the schedule name the executor will be labelled with.
func putRecipe(t *testing.T, tab *synth.Table, f synth.Family, p, payload int, rec synth.Recipe) string {
	t.Helper()
	sch, err := rec.Materialize(f, p)
	if err != nil {
		t.Fatalf("materialize %s for %s/p=%d: %v", rec, f, p, err)
	}
	tab.Put(synth.Entry{
		Family:       f.String(),
		P:            p,
		SizeBucket:   synth.SizeBucket(payload),
		PayloadBytes: payload,
		Recipe:       rec,
		Schedule:     sched.Fingerprint(sch),
		Name:         sch.Name,
	})
	return sch.Name
}

// frontDoorCase drives one rooted front door against its reference loop
// and reports the two output buffers for comparison.
type frontDoorCase struct {
	family   synth.Family
	recipe   synth.Recipe
	payload  int                               // selector payload: whole buffer for bcast, block for gather/scatter
	run      func(c *mpi.Comm) ([]byte, error) // front door
	baseline func(c *mpi.Comm) ([]byte, error) // reference loop
}

// TestFrontDoorsByteIdentical is the satellite acceptance test: each rooted
// front door (broadcast, gather, scatter), configured with a synth table
// entry, executes the synthesized program — observable on the
// schedule_executions_total label — and produces output byte-identical to
// the family's reference loop.
func TestFrontDoorsByteIdentical(t *testing.T) {
	const p, blk = 16, 512

	bcastData := func(c *mpi.Comm) []byte {
		data := make([]byte, p*blk)
		if c.Rank() == 0 {
			for i := range data {
				data[i] = byte(3*i + 1)
			}
		}
		return data
	}
	gatherSend := func(c *mpi.Comm) []byte {
		send := make([]byte, blk)
		for i := range send {
			send[i] = byte(c.Rank()*7 + i)
		}
		return send
	}
	scatterData := func(c *mpi.Comm) []byte {
		if c.Rank() != 0 {
			return nil
		}
		data := make([]byte, p*blk)
		for i := range data {
			data[i] = byte(5*i + 2)
		}
		return data
	}

	cases := map[string]frontDoorCase{
		"broadcast": {
			family: synth.Broadcast,
			// Scatter-allgather differs structurally from the binomial
			// fallback, so the byte-identity check spans two algorithms.
			recipe:  synth.Recipe{Alg: "scatter-allgather-broadcast"},
			payload: p * blk,
			run: func(c *mpi.Comm) ([]byte, error) {
				data := bcastData(c)
				return data, Broadcast(c, 0, data)
			},
			baseline: func(c *mpi.Comm) ([]byte, error) {
				data := bcastData(c)
				return data, refBroadcast(c, 0, data)
			},
		},
		"gather": {
			family:  synth.Gather,
			recipe:  synth.Recipe{Alg: "linear-gather"},
			payload: blk,
			run: func(c *mpi.Comm) ([]byte, error) {
				var recv []byte
				if c.Rank() == 0 {
					recv = make([]byte, p*blk)
				}
				return recv, Gather(c, 0, gatherSend(c), recv)
			},
			baseline: func(c *mpi.Comm) ([]byte, error) {
				var recv []byte
				if c.Rank() == 0 {
					recv = make([]byte, p*blk)
				}
				return recv, refGather(c, 0, gatherSend(c), recv)
			},
		},
		"scatter": {
			family:  synth.Scatter,
			recipe:  synth.Recipe{Alg: "binomial-scatter"},
			payload: blk,
			run: func(c *mpi.Comm) ([]byte, error) {
				out := make([]byte, blk)
				return out, Scatter(c, 0, scatterData(c), out)
			},
			baseline: func(c *mpi.Comm) ([]byte, error) {
				out := make([]byte, blk)
				return out, refScatter(c, 0, scatterData(c), out)
			},
		},
	}

	for label, tc := range cases {
		t.Run(label, func(t *testing.T) {
			tab := &synth.Table{Topology: "frontdoor-test"}
			name := putRecipe(t, tab, tc.family, p, tc.payload, tc.recipe)
			sel := synth.NewSelector(tab)

			hits0, _ := synth.TableCounters()
			exec0 := scheduleExecutions.With("algorithm", name).Value()

			err := mpi.Run(p, func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					Configure(c, Config{Synth: sel})
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				got, err := tc.run(c)
				if err != nil {
					return fmt.Errorf("rank %d front door: %w", c.Rank(), err)
				}
				want, err := tc.baseline(c)
				if err != nil {
					return fmt.Errorf("rank %d baseline: %w", c.Rank(), err)
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("rank %d: %s output differs from the reference", c.Rank(), label)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			if hits1, _ := synth.TableCounters(); hits1 != hits0+p {
				t.Errorf("synth_table_hits_total advanced by %d, want %d (one per rank)", hits1-hits0, p)
			}
			if exec1 := scheduleExecutions.With("algorithm", name).Value(); exec1 != exec0+p {
				t.Errorf("schedule_executions_total{algorithm=%q} advanced by %d, want %d",
					name, exec1-exec0, p)
			}
		})
	}
}

// TestFrontDoorsOffRootFallBack: the synthesized programs are rooted at
// rank 0, so a broadcast/gather/scatter rooted elsewhere misses the table
// (counted as a miss, not a hit), falls back to the family baseline compiled
// at its root — executed by the schedule executor, not a loop — and still
// delivers correct bytes.
func TestFrontDoorsOffRootFallBack(t *testing.T) {
	const p, blk, root = 8, 256, 3
	tab := &synth.Table{Topology: "frontdoor-test"}
	putRecipe(t, tab, synth.Broadcast, p, p*blk, synth.Recipe{Alg: "linear-broadcast"})
	putRecipe(t, tab, synth.Gather, p, blk, synth.Recipe{Alg: "linear-gather"})
	putRecipe(t, tab, synth.Scatter, p, blk, synth.Recipe{Alg: "binomial-scatter"})
	sel := synth.NewSelector(tab)
	builders := []string{"binomial-broadcast", "binomial-gather", "binomial-scatter"}
	before := make([]uint64, len(builders))
	for i, b := range builders {
		before[i] = scheduleExecutions.With("algorithm", b).Value()
	}
	hits0, miss0 := synth.TableCounters()

	err := mpi.Run(p, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, Config{Synth: sel})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		data := make([]byte, p*blk)
		if c.Rank() == root {
			for i := range data {
				data[i] = byte(i + 11)
			}
		}
		if err := Broadcast(c, root, data); err != nil {
			return err
		}
		for i := range data {
			if data[i] != byte(i+11) {
				return fmt.Errorf("rank %d: broadcast byte %d corrupt", c.Rank(), i)
			}
		}

		send := make([]byte, blk)
		for i := range send {
			send[i] = byte(c.Rank() + i)
		}
		var recv []byte
		if c.Rank() == root {
			recv = make([]byte, p*blk)
		}
		if err := Gather(c, root, send, recv); err != nil {
			return err
		}
		if c.Rank() == root {
			for r := 0; r < p; r++ {
				for i := 0; i < blk; i++ {
					if recv[r*blk+i] != byte(r+i) {
						return fmt.Errorf("gather block %d byte %d corrupt", r, i)
					}
				}
			}
		}

		var sdata []byte
		if c.Rank() == root {
			sdata = make([]byte, p*blk)
			for i := range sdata {
				sdata[i] = byte(2 * i)
			}
		}
		out := make([]byte, blk)
		if err := Scatter(c, root, sdata, out); err != nil {
			return err
		}
		for i := range out {
			if out[i] != byte(2*(c.Rank()*blk+i)) {
				return fmt.Errorf("rank %d: scatter byte %d corrupt", c.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range builders {
		if got := scheduleExecutions.With("algorithm", b).Value() - before[i]; got != p {
			t.Errorf("schedule_executions_total{algorithm=%q} advanced by %d, want %d", b, got, p)
		}
	}
	hits1, miss1 := synth.TableCounters()
	if hits1 != hits0 {
		t.Errorf("synth_table_hits_total advanced by %d for entries rooted elsewhere, want 0", hits1-hits0)
	}
	if want := uint64(len(builders) * p); miss1-miss0 != want {
		t.Errorf("synth_table_misses_total advanced by %d, want %d", miss1-miss0, want)
	}
}

// TestRootedFrontDoorsMatchReferences: at every root, each rooted front door
// executes its baseline program compiled at that root — visible on the
// builder's schedule_executions_total label — and its output is
// byte-identical to the family's rooted reference loop.
func TestRootedFrontDoorsMatchReferences(t *testing.T) {
	const blk = 24
	type door struct {
		builder string
		run     func(c *mpi.Comm, root int, ref bool) ([]byte, error)
	}
	doors := []door{
		{"binomial-broadcast", func(c *mpi.Comm, root int, ref bool) ([]byte, error) {
			data := make([]byte, c.Size()*blk)
			if c.Rank() == root {
				copy(data, expected(c.Size(), blk))
			}
			if ref {
				return data, refBroadcast(c, root, data)
			}
			return data, Broadcast(c, root, data)
		}},
		{"binomial-gather", func(c *mpi.Comm, root int, ref bool) ([]byte, error) {
			var recv []byte
			if c.Rank() == root {
				recv = make([]byte, c.Size()*blk)
			}
			if ref {
				return recv, refGather(c, root, input(c.Rank(), blk), recv)
			}
			return recv, Gather(c, root, input(c.Rank(), blk), recv)
		}},
		{"binomial-scatter", func(c *mpi.Comm, root int, ref bool) ([]byte, error) {
			var data []byte
			if c.Rank() == root {
				data = expected(c.Size(), blk)
			}
			out := make([]byte, blk)
			if ref {
				return out, refScatter(c, root, data, out)
			}
			return out, Scatter(c, root, data, out)
		}},
	}
	for _, p := range []int{1, 2, 3, 7, 8, 64} {
		roots := map[int]bool{0: true, 1 % p: true, p / 2: true, p - 1: true}
		for root := range roots {
			for _, d := range doors {
				exec0 := scheduleExecutions.With("algorithm", d.builder).Value()
				err := mpi.Run(p, func(c *mpi.Comm) error {
					got, err := d.run(c, root, false)
					if err != nil {
						return fmt.Errorf("front door: %w", err)
					}
					want, err := d.run(c, root, true)
					if err != nil {
						return fmt.Errorf("reference: %w", err)
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("rank %d: output differs from the reference", c.Rank())
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s p=%d root=%d: %v", d.builder, p, root, err)
				}
				if got := scheduleExecutions.With("algorithm", d.builder).Value() - exec0; got != uint64(p) {
					t.Errorf("%s p=%d root=%d: schedule_executions_total advanced by %d, want %d",
						d.builder, p, root, got, p)
				}
			}
		}
	}
}
