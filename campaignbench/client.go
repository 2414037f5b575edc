package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/al"
	"repro/internal/serve"
)

// client is one connection's worth of API calls against the service's
// public HTTP front (a single server or the ring's router).
type client struct {
	hc   *http.Client
	base string
	rec  *recorder // nil: nothing recorded (set-up, checks)
	tr   *tracer
}

// newTransport returns the client-side transport: at most conns
// connections to the service.
func newTransport(conns int) *http.Transport {
	return &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
}

// failedStatus classifies a response code: 429, any 5xx and anything
// else outside 2xx counts as a failed or refused operation, except a
// suggest poll's 409 ("no suggestion yet"), which is the API's answer
// while the campaign computes.
func failedStatus(route string, code int) bool {
	if code/100 == 2 {
		return false
	}
	return !(route == "suggest" && code == http.StatusConflict)
}

// call performs one request, records it under "http.<route>" and
// decodes a 2xx body into out. It returns the status code; the error is
// non-nil for a transport error or a failed status.
func (c *client) call(route, method, path string, in, out any, parent ref) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := c.tr.start(layerClient, "client."+route, parent)
	if sp != nil {
		req.Header.Set(spanHeader, sp.ref().String())
	}
	t0 := time.Now()
	code, data, err := c.roundTrip(req)
	d := time.Since(t0)
	sp.end()
	if err == nil && failedStatus(route, code) {
		err = fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	if c.rec != nil {
		if s := c.rec.get("http." + route); err != nil {
			s.fail()
		} else {
			s.ok(d)
		}
	}
	if err != nil {
		return code, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code/100 == 2 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return code, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return code, nil
}

func (c *client) roundTrip(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// retried repeats a call that failed, with a short backoff, and reports
// whether any attempt failed. Every attempt is recorded by call.
func retried(op func() (int, error)) (code int, anyFailed bool, err error) {
	backoff := 10 * time.Millisecond
	for attempt := 1; ; attempt++ {
		code, err = op()
		if err == nil || attempt == 5 {
			return code, anyFailed || err != nil, err
		}
		anyFailed = true
		time.Sleep(backoff)
		backoff *= 2
	}
}

// campaignRun is one campaign as the steering client saw it: every
// suggestion it held, in order, how many observations the service
// acknowledged and, once it finished, its final status. The
// correctness gate replays it in-process.
type campaignRun struct {
	client, index int // plan coordinates
	ID            string
	Spec          serve.CampaignSpec
	Sugs          []serve.Suggestion
	Acked         int
	Done          bool
	Final         *serve.CampaignStatus // status read when it finished
	ready         time.Duration         // how long the last suggestion took to appear
}

// total is the number of observations the campaign takes: its seed
// experiments, then one per AL iteration.
func (r *campaignRun) total() int { return len(r.Spec.Seeds) + r.Spec.Iterations }

// hasModel reports whether the campaign has a fitted model: it is done,
// or the suggestion it holds was chosen by the model.
func (r *campaignRun) hasModel() bool { return r.Done || len(r.Sugs) > len(r.Spec.Seeds) }

// steerer is a closed-loop client steering client-sourced campaigns:
// it answers each suggestion from the grid's ground truth and waits
// for the next one.
type steerer struct {
	c    *client
	g    *grid
	runs []*campaignRun
}

// open creates a campaign and waits for its first suggestion.
func (s *steerer) open(spec serve.CampaignSpec, j, k int) (*campaignRun, error) {
	var st serve.CampaignStatus
	if _, err := s.c.call("create", http.MethodPost, "/campaigns", spec, &st, ref{}); err != nil {
		return nil, err
	}
	run := &campaignRun{client: j, index: k, ID: st.ID, Spec: spec}
	s.runs = append(s.runs, run)
	sug, _, err := s.next(run, ref{})
	if err != nil {
		return nil, err
	}
	run.Sugs = append(run.Sugs, sug)
	return run, nil
}

// next polls for the campaign's next suggestion. The service has no
// blocking suggest, so the poll schedule sets how finely a step's time
// is resolved. Polls go out at once and then at growing intervals (an
// eighth of the time waited so far, at least 50µs); once the campaign
// has a previous wait to go by, the client sleeps through 90% of it and
// then, up to twice it, polls every twentieth of it. A step is resolved to about 5% of
// its length in a few polls, where a doubling backoff would round a
// refit that ends just after a poll up by as much again, and turn a
// small change of speed into a large change of step time.
func (s *steerer) next(run *campaignRun, parent ref) (serve.Suggestion, bool, error) {
	start := time.Now()
	expect := run.ready
	anyFailed := false
	for {
		var sug serve.Suggestion
		code, failed, err := retried(func() (int, error) {
			return s.c.call("suggest", http.MethodGet, "/campaigns/"+run.ID+"/suggest", nil, &sug, parent)
		})
		anyFailed = anyFailed || failed
		if err != nil {
			return sug, anyFailed, err
		}
		waited := time.Since(start)
		if code == http.StatusOK {
			run.ready = waited
			if s.c.rec != nil {
				s.c.rec.add("suggest.ready", 1)
			}
			return sug, anyFailed, nil
		}
		preciseSleep(pollDelay(waited, expect))
	}
}

// pollDelay is how long to sleep before the next suggest poll, having
// waited so long for a suggestion that took expect (0: unknown) last
// time.
func pollDelay(waited, expect time.Duration) time.Duration {
	const floor = 50 * time.Microsecond
	switch lead := expect * 9 / 10; {
	case waited < lead:
		return lead - waited
	case waited < 2*expect:
		return max(expect/20, floor)
	default:
		return max(waited/8, floor)
	}
}

// step observes the held suggestion and waits for the next one, or,
// after the last observation, for the campaign to finish. A step whose
// next suggestion was chosen by the model is an AL step: it is recorded
// in "step", charged as missed when any of its requests failed.
func (s *steerer) step(run *campaignRun) error {
	sug := run.Sugs[len(run.Sugs)-1]
	y, cost, err := s.g.truth(sug.X)
	if err != nil {
		return fmt.Errorf("campaign %s: %w", run.ID, err)
	}
	t0 := time.Now()
	root := s.c.tr.start(layerWait, "step", ref{})
	defer root.end()
	req := serve.ObserveRequest{Seq: sug.Seq, Y: al.JSONFloat(y), Cost: al.JSONFloat(cost), Key: fmt.Sprintf("%s-%d", run.ID, sug.Seq)}
	_, failed, err := retried(func() (int, error) {
		return s.c.call("observe", http.MethodPost, "/campaigns/"+run.ID+"/observe", req, nil, root.ref())
	})
	if err != nil {
		return err
	}
	run.Acked++
	if run.Acked == run.total() {
		return s.finish(run)
	}
	next, nextFailed, err := s.next(run, root.ref())
	if err != nil {
		return err
	}
	run.Sugs = append(run.Sugs, next)
	if next.Seq > len(run.Spec.Seeds) && s.c.rec != nil {
		if steps := s.c.rec.get("step"); failed || nextFailed {
			steps.fail()
		} else {
			steps.ok(time.Since(t0))
		}
	}
	return nil
}

// finish polls the campaign's status until it reports done.
func (s *steerer) finish(run *campaignRun) error {
	wait := 100 * time.Microsecond
	for {
		var st serve.CampaignStatus
		if _, _, err := retried(func() (int, error) {
			return s.c.call("status", http.MethodGet, "/campaigns/"+run.ID, nil, &st, ref{})
		}); err != nil {
			return err
		}
		switch st.State {
		case serve.StateDone:
			run.Done = true
			run.Final = &st
			return nil
		case serve.StateFailed, serve.StateStopped:
			return fmt.Errorf("campaign %s ended %s: %s", run.ID, st.State, st.Error)
		}
		preciseSleep(wait)
		wait = min(2*wait, 4*time.Millisecond)
	}
}

// fit steps a campaign until it holds its first model-chosen suggestion
// and then n more.
func (s *steerer) fit(run *campaignRun, n int) error {
	for !run.hasModel() {
		if err := s.step(run); err != nil {
			return err
		}
	}
	for i := 0; i < n && !run.Done; i++ {
		if err := s.step(run); err != nil {
			return err
		}
	}
	return nil
}

// drive steers plan campaigns for client j, one after another, until
// the deadline, and then stops at the first point where its campaign
// has a model: parked there, the campaign is stable for the reads and
// the checks, and the next round steers it on. A finished campaign is
// deleted, as a service's operator would, except the client's first,
// which the reads target; the service's working set stays the same
// however fast it runs.
func (s *steerer) drive(p *plan, j int, deadline time.Time, stop func() bool) error {
	run := s.runs[len(s.runs)-1]
	for !stop() {
		if time.Now().After(deadline) && run.hasModel() {
			return nil
		}
		if run.Done {
			var err error
			if run, err = s.open(p.spec(domainSpec, j, run.index+1), j, run.index+1); err != nil {
				return err
			}
			continue
		}
		if err := s.step(run); err != nil {
			return err
		}
		if run.Done && run.index > 0 {
			if _, _, err := retried(func() (int, error) {
				return s.c.call("delete", http.MethodDelete, "/campaigns/"+run.ID, nil, nil, ref{})
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
