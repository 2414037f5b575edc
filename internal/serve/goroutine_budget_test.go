package serve

import (
	"context"
	"strings"
	"testing"
	"time"
)

// expectCampaignGoroutines fails the test unless the campaign
// goroutine count settles at want.
func expectCampaignGoroutines(t *testing.T, want int, why string) {
	t.Helper()
	if stacks, ok := settleServeGoroutines(want, 2*time.Second); !ok {
		t.Fatalf("%s: %d campaign goroutines, want %d:\n%s", why, len(stacks), want, strings.Join(stacks, "\n\n"))
	}
}

// TestCampaignGoroutineBudget pins what a campaign costs in goroutines:
// a client campaign parked on a suggestion holds exactly one (its
// actor), a dataset campaign's stepping goroutine exits once the
// campaign is done, and nothing survives a manager shutdown.
func TestCampaignGoroutineBudget(t *testing.T) {
	defer checkLeaked(t)
	expectCampaignGoroutines(t, 0, "before any campaign")
	mgr := NewManager(Config{})
	defer mgr.Shutdown(context.Background())

	client, err := mgr.Create(clientSpec(3))
	if err != nil {
		t.Fatalf("create client campaign: %v", err)
	}
	driveCampaign(t, client, 3)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := client.Suggest(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client campaign never parked on its next suggestion")
		}
		time.Sleep(time.Millisecond)
	}
	expectCampaignGoroutines(t, 1, "parked client campaign")

	ds, err := mgr.Create(CampaignSpec{
		Source:     "dataset",
		Dataset:    &DatasetSpec{Name: "synthetic", Seed: 3, N: 14},
		Seeds:      []int{0, 13},
		Strategy:   "variance-reduction",
		Iterations: 4,
		Restarts:   1,
		Seed:       5,
	})
	if err != nil {
		t.Fatalf("create dataset campaign: %v", err)
	}
	ds.Wait()
	if st, err := ds.Status(false); err != nil || st.State != StateDone {
		t.Fatalf("dataset campaign ended %+v (err %v), want done", st, err)
	}
	expectCampaignGoroutines(t, 2, "parked client campaign plus finished dataset campaign (two actors)")

	if err := mgr.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	expectCampaignGoroutines(t, 0, "after shutdown")
}

// TestStopDoesNotWaitForActor holds a campaign's actor busy (as a slow
// journal fsync would): Stop must still return at once, and a shutdown
// must give up at its deadline instead of hanging on the actor.
func TestStopDoesNotWaitForActor(t *testing.T) {
	defer checkLeaked(t)
	mgr := NewManager(Config{})
	c, err := mgr.Create(clientSpec(3))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	busy, release := make(chan struct{}), make(chan struct{})
	go c.do(func(*campaignState) { close(busy); <-release })
	<-busy

	stopped := make(chan struct{})
	go func() { c.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop waited for the busy actor")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := mgr.Shutdown(ctx); err == nil {
		t.Fatal("shutdown reported success while the actor was stuck")
	}

	close(release)
	c.Wait()
	if st, err := c.Status(false); err != nil || st.State != StateStopped {
		t.Fatalf("campaign ended %+v (err %v), want stopped", st, err)
	}
	c.close()
}
