package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/al"
	"repro/internal/mat"
	"repro/internal/serve"
)

// predictSample is one served prediction kept for the correctness gate.
type predictSample struct {
	ID   string
	Pts  [][]float64
	Resp serve.PredictResponse
}

// parallel runs fn(0..n-1) on at most workers goroutines and returns
// the errors joined.
func parallel(n, workers int, fn func(i int) error) error {
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkRuns is the correctness gate for the steered campaigns. The
// served status of each is the one read when it finished, or the
// current one if it did not. Each campaign is replayed in-process
// through a bare
// serve.Manager (no HTTP, no journal, no ring) on the same
// observations. The served suggestion trace, observation count, state
// and model fingerprint must equal the replay's. It returns, per
// finished campaign, the RMSE of the final model over the grid.
func checkRuns(c *client, g *grid, runs []*campaignRun, workers int) (map[*campaignRun]float64, error) {
	rmse := make([]float64, len(runs))
	err := parallel(len(runs), workers, func(i int) error {
		run := runs[i]
		st := run.Final
		if st == nil {
			st = new(serve.CampaignStatus)
			if _, err := c.call("status", http.MethodGet, "/campaigns/"+run.ID, nil, st, ref{}); err != nil {
				return fmt.Errorf("campaign %s: served status: %w", run.ID, err)
			}
		}
		r, err := replay(g, run, st)
		if err != nil {
			return fmt.Errorf("campaign %s (%s): %w", run.ID, run.Spec.Name, err)
		}
		rmse[i] = r
		return nil
	})
	out := map[*campaignRun]float64{}
	for i, run := range runs {
		if run.Done {
			out[run] = rmse[i]
		}
	}
	return out, err
}

// replay runs one campaign in-process up to the point where the client
// stopped and compares it with the served one (status st). For a
// finished campaign it returns the final model's RMSE over the grid.
func replay(g *grid, run *campaignRun, st *serve.CampaignStatus) (float64, error) {
	mgr := serve.NewManager(serve.Config{})
	defer mgr.Shutdown(context.Background())
	c, err := mgr.Create(run.Spec)
	if err != nil {
		return 0, fmt.Errorf("replay create: %w", err)
	}
	if st.Observations != run.Acked {
		return 0, fmt.Errorf("served campaign holds %d observations, %d were acknowledged", st.Observations, run.Acked)
	}
	for i := 0; ; i++ {
		sug, done, err := waitSuggestion(c)
		if err != nil {
			return 0, err
		}
		if done && i < run.Acked {
			return 0, fmt.Errorf("replay finished after %d observations, the service acknowledged %d", i, run.Acked)
		}
		if !done && i < len(run.Sugs) {
			if want := run.Sugs[i]; sug.Seq != want.Seq || !slices.Equal(sug.X, want.X) {
				return 0, fmt.Errorf("suggestion %d: served seq %d x %v, replay seq %d x %v", i, want.Seq, want.X, sug.Seq, sug.X)
			}
		}
		if i == run.Acked {
			ref, err := c.Status(false)
			if err != nil {
				return 0, err
			}
			if err := sameState(run, st, &ref, done); err != nil || !done {
				return 0, err
			}
			model, _, err := c.Model()
			if err != nil {
				return 0, err
			}
			return gridRMSE(g, model), nil
		}
		if err := observeTruth(g, c, sug); err != nil {
			return 0, err
		}
	}
}

// finalRMSE runs a campaign in-process to its last iteration and
// returns the RMSE of its final model over the grid.
func finalRMSE(g *grid, spec serve.CampaignSpec) (float64, error) {
	mgr := serve.NewManager(serve.Config{})
	defer mgr.Shutdown(context.Background())
	c, err := mgr.Create(spec)
	if err != nil {
		return 0, fmt.Errorf("create: %w", err)
	}
	for {
		sug, done, err := waitSuggestion(c)
		if err != nil {
			return 0, err
		}
		if done {
			break
		}
		if err := observeTruth(g, c, sug); err != nil {
			return 0, err
		}
	}
	model, _, err := c.Model()
	if err != nil {
		return 0, err
	}
	return gridRMSE(g, model), nil
}

func observeTruth(g *grid, c *serve.Campaign, sug serve.Suggestion) error {
	y, cost, err := g.truth(sug.X)
	if err != nil {
		return err
	}
	if err := c.Observe(sug.Seq, y, cost); err != nil {
		return fmt.Errorf("replay observe %d: %w", sug.Seq, err)
	}
	return nil
}

// sameState compares the served campaign with the replay at the point
// the client stopped.
func sameState(run *campaignRun, st, ref *serve.CampaignStatus, done bool) error {
	if run.Done != done {
		return fmt.Errorf("served done=%v, replay done=%v after %d observations", run.Done, done, run.Acked)
	}
	want := serve.StateWaiting
	if done {
		want = serve.StateDone
	}
	if st.State != want {
		return fmt.Errorf("served state %s, want %s", st.State, want)
	}
	if !done && (st.Pending == nil || st.Pending.Seq != run.Sugs[len(run.Sugs)-1].Seq) {
		return fmt.Errorf("served pending suggestion %v, client holds seq %d", st.Pending, run.Sugs[len(run.Sugs)-1].Seq)
	}
	if st.Fingerprint != ref.Fingerprint || st.ModelVersion != ref.ModelVersion {
		return fmt.Errorf("served model v%d %016x, replay v%d %016x", st.ModelVersion, st.Fingerprint, ref.ModelVersion, ref.Fingerprint)
	}
	return nil
}

// waitSuggestion waits for the in-process campaign's next suggestion,
// or reports that it finished.
func waitSuggestion(c *serve.Campaign) (serve.Suggestion, bool, error) {
	for {
		sug, err := c.Suggest()
		if err == nil {
			return sug, false, nil
		}
		if !errors.Is(err, serve.ErrNoPending) {
			return sug, false, err
		}
		st, err := c.Status(false)
		if err != nil {
			return sug, false, err
		}
		switch st.State {
		case serve.StateDone:
			return sug, true, nil
		case serve.StateFailed, serve.StateStopped:
			return sug, false, fmt.Errorf("replay ended %s: %s", st.State, st.Error)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// gridRMSE is the RMSE of the model's predictive mean over the grid.
func gridRMSE(g *grid, model al.Regressor) float64 {
	preds := model.PredictBatch(mat.NewFromRows(g.X))
	var ss float64
	for i, p := range preds {
		d := p.Mean - g.Y[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(preds)))
}

// checkPredictions compares sampled served predictions with
// PredictBatch on the campaign's current model, taken from the manager
// that owns it.
func checkPredictions(owner func(string) *serve.Manager, samples []predictSample) error {
	for _, s := range samples {
		c, err := owner(s.ID).Get(s.ID)
		if err != nil {
			return err
		}
		model, version, err := c.Model()
		if err != nil {
			return err
		}
		if version != s.Resp.ModelVersion {
			return fmt.Errorf("campaign %s: prediction served from model v%d, campaign now at v%d", s.ID, s.Resp.ModelVersion, version)
		}
		for i, p := range model.PredictBatch(mat.NewFromRows(s.Pts)) {
			if float64(s.Resp.Means[i]) != p.Mean || float64(s.Resp.SDs[i]) != p.SD {
				return fmt.Errorf("campaign %s: point %v served (%v, %v), model gives (%v, %v)",
					s.ID, s.Pts[i], s.Resp.Means[i], s.Resp.SDs[i], p.Mean, p.SD)
			}
		}
	}
	return nil
}
