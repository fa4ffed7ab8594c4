package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/service"
)

// runSelftest checks the seed contract: one seed gives a byte-identical
// request stream and the same improvement_pct every time, and another seed
// gives a different stream.
func runSelftest(o *opts) error {
	for _, seed := range []int64{1, 2} {
		if err := checkStreamDeterminism(seed); err != nil {
			return err
		}
	}
	a, err := coldImprovement(1)
	if err != nil {
		return err
	}
	b, err := coldImprovement(1)
	if err != nil {
		return err
	}
	if math.Float64bits(a) != math.Float64bits(b) {
		return fmt.Errorf("seed 1: improvement_pct %v then %v", a, b)
	}
	c, err := coldImprovement(2)
	if err != nil {
		return err
	}
	fmt.Printf("improvement_pct seed 1: %v (twice), seed 2: %v\n", a, c)
	return nil
}

// coldImprovement computes mapd-cold's improvement_pct for a seed through a
// fresh in-process service, over the same stream prefix the workload uses.
func coldImprovement(seed int64) (float64, error) {
	svc := service.New(service.Config{})
	defer svc.Close()
	gen := newColdGen(seed)
	var q improvementSum
	for i := 0; i < coldQualityN; i++ {
		req := gen.next()
		if req.Single != nil {
			resp, err := svc.Compute(context.Background(), req.Single)
			if err != nil {
				return 0, err
			}
			q.add(resp)
			continue
		}
		resp, err := svc.ComputeBatch(context.Background(), req.Batch)
		if err != nil {
			return 0, err
		}
		for _, r := range resp.Responses {
			q.add(r)
		}
	}
	return q.pct(), nil
}
