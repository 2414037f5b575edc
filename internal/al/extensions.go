package al

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/gp"
)

// BatchSelect picks k distinct pool candidates for parallel execution
// using the kriging-believer heuristic: after each greedy pick, the model
// is conditioned on a fantasy observation equal to its own predictive
// mean, deflating the variance around the pick so the next pick explores
// elsewhere. This addresses the paper's future-work note that parallel
// experiments "may indicate a less greedy selection strategy" (§VI).
func BatchSelect(model *gp.GP, cands []Candidate, k int, strategy Strategy, rng *rand.Rand) ([]int, error) {
	if model == nil || strategy == nil {
		return nil, errors.New("al: BatchSelect requires a model and a strategy")
	}
	if k <= 0 || k > len(cands) {
		return nil, fmt.Errorf("al: BatchSelect k=%d with %d candidates", k, len(cands))
	}
	remaining := append([]Candidate(nil), cands...)
	cur := model
	var picks []int
	for round := 0; round < k; round++ {
		// Rescore the remaining candidates under the believer model.
		for i := range remaining {
			remaining[i].Pred = cur.Predict(remaining[i].X)
		}
		sel := strategy.Select(remaining, rng)
		if sel < 0 || sel >= len(remaining) {
			return nil, fmt.Errorf("al: strategy %s returned invalid index %d", strategy.Name(), sel)
		}
		chosen := remaining[sel]
		picks = append(picks, chosen.Row)
		remaining = append(remaining[:sel], remaining[sel+1:]...)
		if round == k-1 {
			break
		}
		next, err := cur.Augmented(chosen.X, chosen.Pred.Mean)
		if err != nil {
			return nil, fmt.Errorf("al: believer update: %w", err)
		}
		cur = next
	}
	return picks, nil
}
