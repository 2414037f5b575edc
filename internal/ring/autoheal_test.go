package ring

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
)

// autoDetectorCfg is the aggressive fake-clock detector every
// self-healing test runs: with a 100ms interval the node is suspected
// on the 3rd consecutive missed heartbeat and condemned on the 5th, and
// two pongs readmit a fenced node. PingTimeout is a real-time bound on
// one HTTP ping; in-process targets answer (or refuse) instantly.
func autoDetectorCfg(fc *faults.FakeClock) *DetectorConfig {
	return &DetectorConfig{
		Interval:    100 * time.Millisecond,
		PingTimeout: 2 * time.Second,
		Window:      8,
		SuspectPhi:  1,
		DeadPhi:     2,
		RejoinAfter: 2,
		Clock:       fc,
	}
}

// heartbeatRound advances the fake clock one detector interval and
// waits for every watch loop to finish the round's work — ping,
// suspicion update, any failover or rejoin it triggered — and park on
// the next timer. Assertions between rounds therefore observe a
// quiescent detector, which is what makes these chaos tests
// deterministic under -race.
func heartbeatRound(fc *faults.FakeClock, watchers int) func() {
	fc.BlockUntil(watchers)
	return func() {
		fc.Advance(100 * time.Millisecond)
		fc.BlockUntil(watchers)
	}
}

// roundsUntil runs heartbeat rounds until cond holds, failing the test
// if it never does within the cap.
func roundsUntil(t *testing.T, round func(), what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 64; i++ {
		if cond() {
			return
		}
		round()
	}
	if !cond() {
		t.Fatalf("%s never happened within 64 heartbeat rounds", what)
	}
}

func clusterHealthz(t *testing.T, client *http.Client, base string) (epoch uint64, members int, states map[string]string) {
	t.Helper()
	var out struct {
		Epoch        uint64   `json:"epoch"`
		Members      []string `json:"members"`
		Autofailover bool     `json:"autofailover"`
		Nodes        map[string]struct {
			State string  `json:"state"`
			Phi   float64 `json:"phi"`
		} `json:"nodes"`
	}
	code, err := httpJSON(client, http.MethodGet, base+"/cluster/healthz", "", nil, &out)
	if err != nil || code != http.StatusOK {
		t.Fatalf("cluster healthz: HTTP %d, err %v", code, err)
	}
	if !out.Autofailover {
		t.Fatal("cluster healthz does not report the detector as enabled")
	}
	states = make(map[string]string)
	for id, n := range out.Nodes {
		states[id] = n.State
	}
	return out.Epoch, len(out.Members), states
}

// TestClusterAutoFailoverOwnerKill is the autonomous acceptance
// scenario: kill a campaign owner mid-run and touch nothing — no
// Failover call. The detector's suspicion crosses
// the dead threshold, the router fails the node over on its own, the
// follower resumes with every acknowledged observation, and all
// campaigns finish with the exact reference trace. Then the node
// restarts and rejoins, and its campaigns rebalance back home.
func TestClusterAutoFailoverOwnerKill(t *testing.T) {
	fc := faults.NewFakeClock(time.Unix(0, 0))
	cl := startTestCluster(t, ClusterConfig{
		Replicas: 3,
		Dir:      t.TempDir(),
		Router:   testRouterCfg(),
		Detector: autoDetectorCfg(fc),
	})
	client := &http.Client{}
	round := heartbeatRound(fc, 3)

	ids, seeds, attacked, survivor := seedCampaigns(t, cl, client, 61)
	refs := make(map[string]serve.CampaignStatus)
	for _, id := range ids {
		refs[id] = refStatus(t, clientSpec(seeds[id]))
	}
	const k = 3
	for _, id := range ids {
		if got := driveHTTP(t, client, cl.URL(), id, k); got != k {
			t.Fatalf("campaign %s: %d acked observes before the kill, want %d", id, got, k)
		}
	}
	// Warm the suspicion windows with on-schedule pongs.
	for i := 0; i < 3; i++ {
		round()
	}

	victim := cl.Router().Owner(attacked)
	autosBefore := obs.C("router.autofailover.count").Value()
	manualBefore := obs.C("router.failover.count").Value()
	if err := cl.Kill(victim); err != nil {
		t.Fatalf("kill %s: %v", victim, err)
	}

	// The detector alone must notice and recover — the test only turns
	// the clock.
	roundsUntil(t, round, "autonomous failover of the killed owner", func() bool {
		return obs.C("router.autofailover.count").Value() > autosBefore
	})
	if got := obs.C("router.failover.count").Value(); got != manualBefore+1 {
		t.Fatalf("router.failover.count went %v -> %v, want exactly +1 (the detector's own)", manualBefore, got)
	}

	m := cl.Router().Membership()
	if m.Epoch != 2 || len(m.Members) != 2 {
		t.Fatalf("after auto-failover membership is epoch %d with %d members, want epoch 2 with 2", m.Epoch, len(m.Members))
	}
	epoch, members, states := clusterHealthz(t, client, cl.URL())
	if epoch != 2 || members != 2 {
		t.Fatalf("cluster healthz reports epoch %d with %d members, want 2/2", epoch, members)
	}
	if states[victim] != "fenced" {
		t.Fatalf("cluster healthz reports the killed node as %q, want fenced", states[victim])
	}

	// Zero acknowledged-observe loss on the adopted campaign.
	var st serve.CampaignStatus
	if code, err := httpJSON(client, http.MethodGet, cl.URL()+"/campaigns/"+attacked, "", nil, &st); err != nil || code != http.StatusOK {
		t.Fatalf("status of auto-failed-over campaign: HTTP %d, err %v", code, err)
	}
	if st.Observations != k {
		t.Fatalf("auto-failed-over campaign resumed with %d observations, want %d", st.Observations, k)
	}
	if code, err := httpJSON(client, http.MethodGet, cl.URL()+"/campaigns/"+survivor, "", nil, &st); err != nil || code != http.StatusOK {
		t.Fatalf("surviving campaign %s unavailable after auto-failover: HTTP %d, err %v", survivor, code, err)
	}

	for _, id := range ids {
		driveHTTP(t, client, cl.URL(), id, 0)
		expectSameTrace(t, waitTerminalHTTP(t, client, cl.URL(), id), refs[id])
	}

	// Heal: restart the node (same identity and checkpoint dir, fresh
	// port) — it is reconciled, readmitted at a new epoch, and its
	// natural campaigns migrate back with fingerprint-verified replays.
	rebalancedBefore := obs.C("router.rejoin.count").Value()
	if err := cl.Restart(victim); err != nil {
		t.Fatalf("restart %s: %v", victim, err)
	}
	if got := obs.C("router.rejoin.count").Value(); got != rebalancedBefore+1 {
		t.Fatalf("router.rejoin.count went %v -> %v, want +1", rebalancedBefore, got)
	}
	m = cl.Router().Membership()
	if m.Epoch != 3 || len(m.Members) != 3 {
		t.Fatalf("after rejoin membership is epoch %d with %d members, want epoch 3 with 3", m.Epoch, len(m.Members))
	}
	if got := cl.Node(victim).Epoch(); got != 3 {
		t.Fatalf("rejoined node is at epoch %d, want 3", got)
	}
	if got := cl.Router().Owner(attacked); got != victim {
		t.Fatalf("campaign %s was not rebalanced home after rejoin: owner %s, want %s", attacked, got, victim)
	}
	_, _, states = clusterHealthz(t, client, cl.URL())
	if states[victim] != "alive" {
		t.Fatalf("cluster healthz reports the rejoined node as %q, want alive", states[victim])
	}
	// The rebalanced campaign is intact on its home node.
	expectSameTrace(t, statusAfterReplayHTTP(t, client, cl.URL(), attacked), refs[attacked])
}

// TestClusterAutoFencePartitionRejoin covers the false-positive the
// φ-detector must survive: the node is alive but unreachable from the
// router. The detector condemns and fences it — the node stays at the
// old epoch, so epoch-labeled requests aimed at it are rejected 503
// rather than answered from a stale view (no split-brain) — the rest of
// the cluster keeps serving, and when the partition heals the node is
// reconciled and rejoined autonomously, with its campaigns rebalanced
// back.
func TestClusterAutoFencePartitionRejoin(t *testing.T) {
	fc := faults.NewFakeClock(time.Unix(0, 0))
	cl := startTestCluster(t, ClusterConfig{
		Replicas: 3,
		Router:   testRouterCfg(),
		Detector: autoDetectorCfg(fc),
	})
	client := &http.Client{}
	round := heartbeatRound(fc, 3)

	ids, seeds, isolated, _ := seedCampaigns(t, cl, client, 71)
	refs := make(map[string]serve.CampaignStatus)
	for _, id := range ids {
		refs[id] = refStatus(t, clientSpec(seeds[id]))
	}
	for _, id := range ids {
		driveHTTP(t, client, cl.URL(), id, 2)
	}
	for i := 0; i < 3; i++ {
		round()
	}

	cut := cl.Router().Owner(isolated)
	autosBefore := obs.C("router.autofailover.count").Value()
	if err := cl.Partition(cut, true); err != nil {
		t.Fatalf("partition %s: %v", cut, err)
	}
	roundsUntil(t, round, "autonomous fencing of the partitioned node", func() bool {
		return obs.C("router.autofailover.count").Value() > autosBefore
	})

	m := cl.Router().Membership()
	if m.Epoch != 2 || len(m.Members) != 2 {
		t.Fatalf("after auto-fence membership is epoch %d with %d members, want epoch 2 with 2", m.Epoch, len(m.Members))
	}
	_, _, states := clusterHealthz(t, client, cl.URL())
	if states[cut] != "fenced" {
		t.Fatalf("cluster healthz reports the partitioned node as %q, want fenced", states[cut])
	}

	// The fence in action: the node is alive (the partition only cuts
	// the router's transport; this direct request reaches it) but still
	// at epoch 1, so a request labeled with the current epoch is refused
	// 503 — it cannot serve anything on a stale membership view.
	req, err := http.NewRequest(http.MethodGet, cl.NodeURL(cut)+"/campaigns", nil)
	if err != nil {
		t.Fatalf("build fenced request: %v", err)
	}
	req.Header.Set(EpochHeader, "2")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("fenced node is not reachable directly — the partition cut more than the router link: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("epoch-2 request to the fenced node: HTTP %d, want 503 (stale-epoch fence)", resp.StatusCode)
	}

	// The two survivors are a complete service: every campaign —
	// including the one adopted away from the fenced node — runs to its
	// reference trace while the partition holds.
	for _, id := range ids {
		driveHTTP(t, client, cl.URL(), id, 0)
		expectSameTrace(t, waitTerminalHTTP(t, client, cl.URL(), id), refs[id])
	}

	// Heal the link. Two clean pongs later the detector rejoins the node
	// autonomously: reconcile wipes its stale campaign state, the epoch
	// moves, and its natural campaigns migrate back.
	rejoinsBefore := obs.C("router.rejoin.count").Value()
	if err := cl.Partition(cut, false); err != nil {
		t.Fatalf("heal partition %s: %v", cut, err)
	}
	roundsUntil(t, round, "autonomous rejoin of the healed node", func() bool {
		return obs.C("router.rejoin.count").Value() > rejoinsBefore
	})

	m = cl.Router().Membership()
	if m.Epoch != 3 || len(m.Members) != 3 {
		t.Fatalf("after rejoin membership is epoch %d with %d members, want epoch 3 with 3", m.Epoch, len(m.Members))
	}
	if got := cl.Node(cut).Epoch(); got != 3 {
		t.Fatalf("rejoined node is at epoch %d, want 3", got)
	}
	_, _, states = clusterHealthz(t, client, cl.URL())
	if states[cut] != "alive" {
		t.Fatalf("cluster healthz reports the healed node as %q, want alive", states[cut])
	}
	if got := cl.Router().Owner(isolated); got != cut {
		t.Fatalf("campaign %s was not rebalanced home after rejoin: owner %s, want %s", isolated, got, cut)
	}
	expectSameTrace(t, statusAfterReplayHTTP(t, client, cl.URL(), isolated), refs[isolated])
}

// TestClusterReplicationK3 runs a campaign at replication 3 (owner plus
// two followers): both followers converge to the owner's journal byte
// for byte, and the campaign survives TWO successive owner failures —
// losing any k-1 of the k copies — finishing on the last node standing
// with the exact reference trace.
func TestClusterReplicationK3(t *testing.T) {
	cl := startTestCluster(t, ClusterConfig{
		Replicas:    3,
		Replication: 3,
		Router:      testRouterCfg(),
	})
	client := &http.Client{}
	ref := refStatus(t, clientSpec(81))

	id := createCampaign(t, client, cl.URL(), clientSpec(81))
	driveHTTP(t, client, cl.URL(), id, 2)

	// Every node holds the journal: the owner's local copy and a shipped
	// replica on each of the two followers (the terminal line ships
	// best-effort, so poll briefly for convergence).
	owner := cl.Router().Owner(id)
	var followers []string
	for _, nid := range cl.NodeIDs() {
		if nid != owner {
			followers = append(followers, nid)
		}
	}
	if len(followers) != 2 {
		t.Fatalf("replication-3 campaign has %d followers, want 2", len(followers))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var exported []byte
		if resp, err := client.Get(cl.NodeURL(owner) + "/internal/export/" + id); err == nil {
			exported = readAllBody(t, resp)
		}
		converged := len(exported) > 0
		for _, f := range followers {
			var replicated []byte
			if resp, err := client.Get(cl.NodeURL(f) + "/internal/replica/" + id); err == nil {
				replicated = readAllBody(t, resp)
			}
			converged = converged && bytes.Equal(exported, replicated)
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s: follower replicas never converged to the owner's journal", id)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// First owner loss: the ring remaps the campaign onto a node already
	// holding its replica.
	if err := cl.Kill(owner); err != nil {
		t.Fatalf("first kill (%s): %v", owner, err)
	}
	if err := cl.Router().Failover(owner); err != nil {
		t.Fatalf("first failover (%s): %v", owner, err)
	}
	var st serve.CampaignStatus
	if code, err := httpJSON(client, http.MethodGet, cl.URL()+"/campaigns/"+id, "", nil, &st); err != nil || code != http.StatusOK {
		t.Fatalf("status after first failover: HTTP %d, err %v", code, err)
	}
	if st.Observations != 2 {
		t.Fatalf("after the first failover the campaign has %d observations, want 2", st.Observations)
	}
	driveHTTP(t, client, cl.URL(), id, 2)

	// Second owner loss: only one copy remains, and it is complete.
	second := cl.Router().Owner(id)
	if second == owner {
		t.Fatalf("campaign still placed on the dead node %s", owner)
	}
	if err := cl.Kill(second); err != nil {
		t.Fatalf("second kill (%s): %v", second, err)
	}
	if err := cl.Router().Failover(second); err != nil {
		t.Fatalf("second failover (%s): %v", second, err)
	}
	if code, err := httpJSON(client, http.MethodGet, cl.URL()+"/campaigns/"+id, "", nil, &st); err != nil || code != http.StatusOK {
		t.Fatalf("status after second failover: HTTP %d, err %v", code, err)
	}
	if st.Observations != 4 {
		t.Fatalf("after the second failover the campaign has %d observations, want 4", st.Observations)
	}

	driveHTTP(t, client, cl.URL(), id, 0)
	expectSameTrace(t, waitTerminalHTTP(t, client, cl.URL(), id), ref)

	if m := cl.Router().Membership(); m.Epoch != 3 || len(m.Members) != 1 {
		t.Fatalf("after two failovers membership is epoch %d with %d members, want epoch 3 with 1", m.Epoch, len(m.Members))
	}
}
