package main

// workload is one traffic mix against the campaign service. Every
// workload runs the same three phases, in rounds, with its own shares
// of the run: a closed-loop steering client (writes), then an open-loop
// predict generator at a fixed rate, then a closed loop of predict
// requests (reads).
type workload struct {
	name string
	why  string

	ring    bool   // serve through the router of a 3-node ring, replication 3
	persist bool   // fsync'd on-disk journals (always on for the ring)
	grid    string // "paper": the §V-B study grid; "synthetic": the 1-D 40-point grid

	seedExperiments int
	iterations      int // AL steps per campaign
	reoptimizeEvery int // 0: full hyperparameter refit on every step

	parked      int // campaigns fitted during set-up that the reads target
	parkedSteps int // AL steps each parked campaign is fitted with

	writeShare, openShare, closedShare float64 // of --seconds
	openRate                           float64 // open-loop predict requests per second at the reference speed

	// rounds is how many times a pass cycles through the three phases.
	// Interleaving spreads a slow spell of the shared machine over every
	// phase, and each round's calibrations sample the machine's speed
	// through the pass. A write phase stays long enough that its end,
	// which waits for the campaign's next model, is a small share of it.
	rounds int

	rmseCampaigns int // first variance-reduction campaigns of client 0 whose median RMSE is final_rmse
}

var workloads = []workload{
	{
		name: "steer",
		why: "the paper's online mode: a closed-loop client steers 2-D study-grid campaigns with a full " +
			"hyperparameter refit per step, so the model layer (al, gp, optimize, mat) dominates",
		persist: true, grid: "paper",
		seedExperiments: 3, iterations: 30,
		writeShare: 0.6, openShare: 0.2, closedShare: 0.2, openRate: 1200,
		rounds:        24,
		rmseCampaigns: 8,
	},
	{
		name: "dashboard",
		why: "mostly reads: predict batches (60% on-grid cache hits, 40% misses) against parked campaigns, " +
			"so the serving front, prediction cache and scoring pool dominate; no fitting during the reads",
		grid:            "paper",
		seedExperiments: 6, iterations: 30, reoptimizeEvery: 1000,
		parked: 4, parkedSteps: 12,
		writeShare: 0.2, openShare: 0.4, closedShare: 0.4, openRate: 1500,
		rounds:        16,
		rmseCampaigns: 32,
	},
	{
		name: "replicated",
		why: "cheap 1-D campaigns with incremental updates steered through a 3-node ring with fsync'd " +
			"journals, so the durability path (router, journal, shipping) dominates each observe",
		ring: true, persist: true, grid: "synthetic",
		seedExperiments: 6, iterations: 40, reoptimizeEvery: 1000,
		writeShare: 0.75, openShare: 0.125, closedShare: 0.125, openRate: 1000,
		rounds:        16,
		rmseCampaigns: 32,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
