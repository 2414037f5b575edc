package ring

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("c%06d", i+1)
	}
	return keys
}

func TestRingOwnerDeterministic(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	a := NewRing(nodes, 0)
	b := NewRing([]string{"n5", "n3", "n1", "n4", "n2"}, 0) // order must not matter
	for _, key := range testKeys(200) {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %s: owner differs across construction orders (%s vs %s)", key, a.Owner(key), b.Owner(key))
		}
		walk := a.OwnerN(key, len(nodes))
		if len(walk) != len(nodes) {
			t.Fatalf("key %s: OwnerN returned %d nodes, want %d", key, len(walk), len(nodes))
		}
		seen := make(map[string]bool)
		for _, id := range walk {
			if seen[id] {
				t.Fatalf("key %s: OwnerN repeated node %s", key, id)
			}
			seen[id] = true
		}
		if walk[0] != a.Owner(key) {
			t.Fatalf("key %s: OwnerN[0]=%s disagrees with Owner=%s", key, walk[0], a.Owner(key))
		}
	}
}

func TestRingDistribution(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	r := NewRing(nodes, 0)
	counts := make(map[string]int)
	for _, key := range testKeys(300) {
		counts[r.Owner(key)]++
	}
	for _, id := range nodes {
		if counts[id] == 0 {
			t.Fatalf("node %s owns no keys out of 300: %v", id, counts)
		}
	}
}

// TestRingFailoverRemap pins the invariant the whole failover design
// rests on: when a node dies, each of its keys lands exactly on that
// key's old follower (OwnerN[1] — the node already holding the shipped
// replica), and every other key keeps its owner.
func TestRingFailoverRemap(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	full := NewRing(nodes, 0)
	for _, dead := range nodes {
		var survivors []string
		for _, id := range nodes {
			if id != dead {
				survivors = append(survivors, id)
			}
		}
		shrunk := NewRing(survivors, 0)
		remapped := 0
		for _, key := range testKeys(300) {
			owner := full.Owner(key)
			if owner != dead {
				if got := shrunk.Owner(key); got != owner {
					t.Fatalf("removing %s moved key %s from %s to %s — unrelated keys must not move", dead, key, owner, got)
				}
				continue
			}
			remapped++
			follower := full.OwnerN(key, 2)[1]
			if got := shrunk.Owner(key); got != follower {
				t.Fatalf("removing %s sent key %s to %s, but its follower (replica holder) is %s", dead, key, got, follower)
			}
		}
		if remapped == 0 {
			t.Fatalf("node %s owned no keys — test exercises nothing", dead)
		}
	}
}

func TestMembershipValidate(t *testing.T) {
	bad := []Membership{
		{Epoch: 1, Members: []Member{{ID: "", URL: "http://x"}}},
		{Epoch: 1, Members: []Member{{ID: "n1", URL: ""}}},
		{Epoch: 1, Members: []Member{{ID: "n1", URL: "http://x"}, {ID: "n1", URL: "http://y"}}},
	}
	for i, m := range bad {
		if err := m.validate(); err == nil {
			t.Fatalf("membership %d validated but is malformed: %+v", i, m)
		}
	}
}

func TestNodeEpochGuard(t *testing.T) {
	n := NewNode(NodeConfig{ID: "n1"})
	defer n.Manager().Shutdown(context.Background())

	m := Membership{Epoch: 5, Members: []Member{{ID: "n1", URL: "http://a"}, {ID: "n2", URL: "http://b"}}}
	if err := n.InstallMembership(m); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := n.InstallMembership(Membership{Epoch: 4, Members: m.Members}); err == nil {
		t.Fatal("installing an older epoch succeeded — epochs must only move forward")
	}
	if err := n.InstallMembership(Membership{Epoch: 5, Members: m.Members}); err != nil {
		t.Fatalf("re-installing the current epoch should be a no-op refresh, got %v", err)
	}

	before := ringEpochRejects.Value()
	req := httptest.NewRequest(http.MethodGet, "/campaigns", nil)
	req.Header.Set(EpochHeader, "4")
	rec := httptest.NewRecorder()
	n.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stale-epoch request got HTTP %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("stale-epoch rejection carries no Retry-After")
	}
	if ringEpochRejects.Value() != before+1 {
		t.Fatalf("ring.epoch.rejects did not increment (%v -> %v)", before, ringEpochRejects.Value())
	}

	req = httptest.NewRequest(http.MethodGet, "/campaigns", nil)
	req.Header.Set(EpochHeader, "5")
	rec = httptest.NewRecorder()
	n.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("current-epoch request got HTTP %d, want 200", rec.Code)
	}
}

// TestShipProtocol drives the follower-side replica API directly:
// in-order appends accumulate, duplicates are acknowledged without
// effect, gaps are rejected 409, and a full PUT heals anything.
func TestShipProtocol(t *testing.T) {
	n := NewNode(NodeConfig{ID: "n2"})
	defer n.Manager().Shutdown(context.Background())

	ship := func(id string, idx int, line string) (int, int) {
		t.Helper()
		body, _ := json.Marshal(shipRequest{Idx: idx, Line: []byte(line)})
		req := httptest.NewRequest(http.MethodPost, "/internal/ship/"+id, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, req)
		var out struct {
			Count int `json:"count"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &out)
		return rec.Code, out.Count
	}

	// A fresh replica only starts at idx 0 (the header line).
	if code, _ := ship("cX", 3, "late\n"); code != http.StatusConflict {
		t.Fatalf("ship idx 3 to missing replica: HTTP %d, want 409", code)
	}
	if code, count := ship("cX", 0, "header\n"); code != http.StatusOK || count != 1 {
		t.Fatalf("ship idx 0: HTTP %d count %d, want 200/1", code, count)
	}
	if code, count := ship("cX", 1, "obs-1\n"); code != http.StatusOK || count != 2 {
		t.Fatalf("ship idx 1: HTTP %d count %d, want 200/2", code, count)
	}
	dedupBefore := ringShipDedup.Value()
	if code, count := ship("cX", 1, "obs-1\n"); code != http.StatusOK || count != 2 {
		t.Fatalf("duplicate ship idx 1: HTTP %d count %d, want 200/2 (idempotent ack)", code, count)
	}
	if ringShipDedup.Value() != dedupBefore+1 {
		t.Fatal("duplicate delivery did not count as ring.ship.dedup")
	}
	if code, count := ship("cX", 3, "gap\n"); code != http.StatusConflict || count != 2 {
		t.Fatalf("gapped ship idx 3: HTTP %d count %d, want 409 with count 2", code, count)
	}
	if code, _ := ship("cX", 0, "not newline terminated"); code != http.StatusBadRequest {
		t.Fatalf("unterminated line accepted: HTTP %d, want 400", code)
	}

	// Full sync replaces the buffer wholesale.
	image := "header\nobs-1\nobs-2\nobs-3\n"
	req := httptest.NewRequest(http.MethodPut, "/internal/replica/cX", strings.NewReader(image))
	rec := httptest.NewRecorder()
	n.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("replica PUT: HTTP %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/internal/replica/cX", nil)
	rec = httptest.NewRecorder()
	n.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.String() != image {
		t.Fatalf("replica GET after sync: HTTP %d body %q, want the synced image", rec.Code, rec.Body.String())
	}
	// And the next in-order ship continues from the synced count.
	if code, count := ship("cX", 4, "obs-4\n"); code != http.StatusOK || count != 5 {
		t.Fatalf("ship after sync: HTTP %d count %d, want 200/5", code, count)
	}
}

// TestShipBeforeAck pins replicate-before-ack at the appender level:
// when the follower is unreachable, AppendObs must fail (the service
// then answers 503 and the client retries) rather than journal locally
// and ack an observation that exists on one node only.
func TestShipBeforeAck(t *testing.T) {
	n := NewNode(NodeConfig{ID: "n1"})
	defer n.Manager().Shutdown(context.Background())
	// A follower that is down: a listener address nothing accepts on.
	if err := n.InstallMembership(Membership{Epoch: 1, Members: []Member{
		{ID: "n1", URL: "http://127.0.0.1:1"},
		{ID: "n2", URL: "http://127.0.0.1:1"},
	}}); err != nil {
		t.Fatalf("install: %v", err)
	}

	store := &shippingStore{node: n, inner: serve.NewMemStore()}
	app, err := store.Create("c000001", clientSpec(1))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer app.Close()
	errsBefore := ringShipErrors.Value()
	if err := app.AppendObs(serve.Observation{X: []float64{0}, Y: 1, Cost: 1}, 1, 42); err == nil {
		t.Fatal("AppendObs succeeded with the follower unreachable — the ack would exist on one node only")
	}
	if ringShipErrors.Value() <= errsBefore {
		t.Fatal("failed replication did not count as ring.ship.errors")
	}
	// The local journal must not contain the rejected observation.
	data, err := store.Export("c000001")
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if got := bytes.Count(data, []byte("\n")); got != 1 {
		t.Fatalf("local journal has %d lines after a rejected append, want 1 (header only):\n%s", got, data)
	}
}

// TestRingOwnerNSmallMemberships pins OwnerN's behavior at the edges
// the k-follower placement depends on: k greater than the membership
// clamps (never pads, never repeats), k equal to it returns every node
// exactly once, and degenerate rings return nil rather than panic.
func TestRingOwnerNSmallMemberships(t *testing.T) {
	cases := []struct {
		name  string
		nodes []string
		n     int
		want  int // expected result length
	}{
		{"k exceeds membership", []string{"n1", "n2"}, 3, 2},
		{"k equals membership", []string{"n1", "n2", "n3"}, 3, 3},
		{"single node, k=3", []string{"n1"}, 3, 1},
		{"single node, k=1", []string{"n1"}, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing(tc.nodes, 0)
			for _, key := range testKeys(50) {
				got := r.OwnerN(key, tc.n)
				if len(got) != tc.want {
					t.Fatalf("key %s: OwnerN(%d) over %v returned %v, want %d distinct nodes",
						key, tc.n, tc.nodes, got, tc.want)
				}
				seen := make(map[string]bool)
				for _, id := range got {
					if seen[id] {
						t.Fatalf("key %s: OwnerN repeated %s: %v", key, id, got)
					}
					seen[id] = true
				}
				if got[0] != r.Owner(key) {
					t.Fatalf("key %s: OwnerN[0]=%s disagrees with Owner=%s", key, got[0], r.Owner(key))
				}
			}
		})
	}

	empty := NewRing(nil, 0)
	if got := empty.OwnerN("c000001", 3); got != nil {
		t.Fatalf("empty ring OwnerN returned %v, want nil", got)
	}
	r := NewRing([]string{"n1", "n2"}, 0)
	if got := r.OwnerN("c000001", 0); got != nil {
		t.Fatalf("OwnerN(0) returned %v, want nil", got)
	}
	if got := r.OwnerN("c000001", -1); got != nil {
		t.Fatalf("OwnerN(-1) returned %v, want nil", got)
	}
}

// TestRingFollowerSetMinimalRemap extends the failover-remap invariant
// to the whole k=3 replica set: removing one node must leave every
// key's surviving replica holders in place and in order — the shrunken
// ring's OwnerN(key, 3) is exactly the full ring's preference walk with
// the dead node deleted. This is what lets a k-replicated campaign fail
// over without re-shipping journals to freshly chosen followers.
func TestRingFollowerSetMinimalRemap(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	full := NewRing(nodes, 0)
	const k = 3
	for _, dead := range nodes {
		var survivors []string
		for _, id := range nodes {
			if id != dead {
				survivors = append(survivors, id)
			}
		}
		shrunk := NewRing(survivors, 0)
		for _, key := range testKeys(200) {
			walk := full.OwnerN(key, len(nodes))
			var want []string
			for _, id := range walk {
				if id != dead {
					want = append(want, id)
				}
				if len(want) == k {
					break
				}
			}
			got := shrunk.OwnerN(key, k)
			if len(got) != len(want) {
				t.Fatalf("removing %s: key %s OwnerN(%d)=%v, want %v", dead, key, k, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("removing %s: key %s replica set remapped to %v, want the filtered walk %v",
						dead, key, got, want)
				}
			}
		}
	}
}

// failOnceStore issues appenders whose first AppendObs fails: a local
// journal write that breaks after the followers already acked the
// shipped record.
type failOnceStore struct{ serve.Store }

func (s failOnceStore) Create(id string, spec serve.CampaignSpec) (serve.Appender, error) {
	app, err := s.Store.Create(id, spec)
	if err != nil {
		return nil, err
	}
	return &failOnceAppender{Appender: app}, nil
}

type failOnceAppender struct {
	serve.Appender
	failed bool
}

func (a *failOnceAppender) AppendObs(o serve.Observation, mv int, fp uint64) error {
	if !a.failed {
		a.failed = true
		return errors.New("injected local append failure")
	}
	return a.Appender.AppendObs(o, mv, fp)
}

// TestShipLocalAppendFailureKeepsReplicaInSync: when the local append
// fails after a follower acked the shipped record, the client's retry of
// the same observation must not land on the follower a second time —
// failover adopts the longest replica image, so a follower holding an
// unacknowledged duplicate would resume the campaign with it. After the
// failed append and the retried one, the follower's replica equals the
// owner's journal byte for byte.
func TestShipLocalAppendFailureKeepsReplicaInSync(t *testing.T) {
	owner := NewNode(NodeConfig{ID: "n1", Serve: serve.Config{Store: failOnceStore{serve.NewMemStore()}}})
	defer owner.Manager().Shutdown(context.Background())
	follower := NewNode(NodeConfig{ID: "n2"})
	defer follower.Manager().Shutdown(context.Background())
	ownerSrv, folSrv := httptest.NewServer(owner), httptest.NewServer(follower)
	defer ownerSrv.Close()
	defer folSrv.Close()
	m := Membership{Epoch: 1, Members: []Member{{ID: "n1", URL: ownerSrv.URL}, {ID: "n2", URL: folSrv.URL}}}
	for _, n := range []*Node{owner, follower} {
		if err := n.InstallMembership(m); err != nil {
			t.Fatalf("install on %s: %v", n.ID, err)
		}
	}

	store := &shippingStore{node: owner, inner: owner.inner}
	const id = "c000001"
	app, err := store.Create(id, clientSpec(1))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer app.Close()
	o := serve.Observation{X: []float64{0.5}, Y: 1, Cost: 1}
	if err := app.AppendObs(o, 1, 42); err == nil {
		t.Fatal("AppendObs succeeded although the local append failed")
	}
	if err := app.AppendObs(o, 1, 42); err != nil {
		t.Fatalf("retried AppendObs: %v", err)
	}

	want, err := owner.inner.Export(id)
	if err != nil {
		t.Fatalf("owner export: %v", err)
	}
	resp, err := http.Get(folSrv.URL + "/internal/replica/" + id)
	if err != nil {
		t.Fatalf("replica GET: %v", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("replica GET: HTTP %d, err %v", resp.StatusCode, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("follower replica (%d lines) differs from the owner's journal (%d lines):\nfollower:\n%s\nowner:\n%s",
			bytes.Count(got, []byte("\n")), bytes.Count(want, []byte("\n")), got, want)
	}
}
