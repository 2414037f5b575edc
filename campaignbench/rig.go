package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/faults"
	"repro/internal/resilience"
	"repro/internal/ring"
	"repro/internal/serve"
)

// serverConfig is the serving front every node runs: production
// defaults plus the admission bound alserve's SLO replay uses.
var serverConfig = serve.ServerConfig{Admission: resilience.AdmissionConfig{MaxInFlight: 64}}

// rig is a running service the clients talk to: one serve.Server, or
// the router of a ring of nodes.
type rig struct {
	url   string
	owner func(id string) *serve.Manager // the manager holding campaign id
	stops []func()
}

// close stops everything the rig started, newest first, and waits for
// it to exit.
func (r *rig) close() {
	for i := len(r.stops) - 1; i >= 0; i-- {
		r.stops[i]()
	}
	r.stops = nil
}

// listen serves h on an ephemeral loopback port.
func (r *rig) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns http.ErrServerClosed once stopped
	}()
	r.stops = append(r.stops, func() {
		srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// manage registers a manager's graceful shutdown.
func (r *rig) manage(mgr *serve.Manager) {
	r.stops = append(r.stops, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx) // campaigns are checked before teardown; a late drain changes nothing measured
	})
}

// journalStore is the fsync'd on-disk journal store, timed when tr is
// non-nil.
func journalStore(dir string, tr *tracer) serve.Store {
	var st serve.Store = serve.NewDirStore(dir, faults.TornWriteConfig{})
	if tr != nil {
		st = tr.store(st)
	}
	return st
}

// newServerRig starts one serve.Manager behind serve.NewServerWith.
// With persist, campaigns journal to an on-disk checkpoint directory.
func newServerRig(dir string, persist bool, tr *tracer) (*rig, error) {
	r := &rig{}
	cfg := serve.Config{}
	if persist {
		cfg.Store = journalStore(dir, tr)
	}
	mgr := serve.NewManager(cfg)
	r.manage(mgr)
	if _, err := mgr.ResumeAll(); err != nil {
		r.close()
		return nil, fmt.Errorf("resume: %w", err)
	}
	var h http.Handler = serve.NewServerWith(mgr, serverConfig)
	if tr != nil {
		h = tr.handler(layerServe, h)
	}
	url, err := r.listen(h)
	if err != nil {
		r.close()
		return nil, err
	}
	r.url = url
	r.owner = func(string) *serve.Manager { return mgr }
	return r, nil
}

// ringNodes and ringReplication shape the hand-built ring: three nodes,
// every campaign journaled on its owner and shipped to both others.
const (
	ringNodes       = 3
	ringReplication = 3
)

// newRingRig starts ringNodes nodes with fsync'd DirStore journals and
// a router in front, installs the membership and resumes the (empty)
// stores, as a cluster boot does.
func newRingRig(dir string, tr *tracer) (*rig, error) {
	r := &rig{}
	var members []ring.Member
	nodes := map[string]*ring.Node{}
	for i := 1; i <= ringNodes; i++ {
		id := fmt.Sprintf("n%d", i)
		ncfg := ring.NodeConfig{
			ID:        id,
			Serve:     serve.Config{Store: journalStore(filepath.Join(dir, id), tr)},
			Server:    serverConfig,
			Followers: ringReplication - 1,
		}
		if tr != nil {
			ncfg.Client = &http.Client{Transport: tr.transport(layerShip, http.DefaultTransport)}
		}
		n := ring.NewNode(ncfg)
		r.manage(n.Manager())
		r.stops = append(r.stops, n.MarkDead) // runs before the shutdown: no shipping to stopped peers
		var h http.Handler = n
		if tr != nil {
			h = tr.handler(layerServe, h)
		}
		url, err := r.listen(h)
		if err != nil {
			r.close()
			return nil, err
		}
		nodes[id] = n
		members = append(members, ring.Member{ID: id, URL: url})
	}
	rcfg := ring.RouterConfig{}
	if tr != nil {
		rcfg.Transport = tr.transport(layerForward, http.DefaultTransport)
	}
	router, err := ring.NewRouter(members, rcfg)
	if err != nil {
		r.close()
		return nil, err
	}
	r.stops = append(r.stops, router.Close)
	if err := router.PushMembership(); err != nil {
		r.close()
		return nil, err
	}
	for id, n := range nodes {
		if _, err := n.Manager().ResumeAll(); err != nil {
			r.close()
			return nil, fmt.Errorf("resume on %s: %w", id, err)
		}
	}
	var h http.Handler = router
	if tr != nil {
		h = tr.handler(layerRouter, h)
	}
	url, err := r.listen(h)
	if err != nil {
		r.close()
		return nil, err
	}
	r.url = url
	r.owner = func(id string) *serve.Manager { return nodes[router.Owner(id)].Manager() }
	// Router and ship clients share http.DefaultTransport; drop its
	// connections to this rig's listeners once they are gone.
	r.stops = append([]func(){http.DefaultTransport.(*http.Transport).CloseIdleConnections}, r.stops...)
	return r, nil
}
