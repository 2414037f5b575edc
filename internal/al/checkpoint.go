package al

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/gp"
	"repro/internal/obs"
)

var checkpointsSaved = obs.C("al.checkpoints.saved")

// CheckpointVersion is the on-disk format version; Resume rejects
// checkpoints written by an incompatible loop.
const CheckpointVersion = 1

// Checkpoint is the complete, JSON-serializable state of a Run loop at
// an iteration boundary. Together with the dataset, partition and the
// LoopConfig that produced it, it deterministically reconstructs the
// loop: the GP is rebuilt bit-for-bit from the recorded hyperparameter
// state (gp.FitAtHypers over the refit prefix, then the same
// incremental-update chain), and the RNG is fast-forwarded to Draws, so
// a resumed run selects exactly the rows the uninterrupted run would
// have.
type Checkpoint struct {
	Version  int    `json:"version"`
	Strategy string `json:"strategy"`
	Response string `json:"response"`

	// Model is the regression tier the loop ran ("dense", "sparse",
	// "auto"); empty means dense — checkpoints from before the tier
	// system resume unchanged.
	Model string `json:"model,omitempty"`

	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`

	// NextIter is the 1-based iteration the resumed loop starts at.
	NextIter int `json:"next_iter"`

	Train  []int     `json:"train"`
	TrainY []float64 `json:"train_y"`
	Pool   []int     `json:"pool"`

	CumCost  float64   `json:"cum_cost"`
	AMSDHist []float64 `json:"amsd_hist"`

	// The model is stored as a recipe, not a matrix dump: hypers of the
	// last (possibly degraded) refit, the train-prefix length it was
	// fitted on, and the pending point not yet conditioned in.
	RefitHyper []float64 `json:"refit_hyper"`
	RefitLogSN float64   `json:"refit_log_sn"`
	RefitN     int       `json:"refit_n"`

	HasPending bool      `json:"has_pending"`
	PendingX   []float64 `json:"pending_x,omitempty"`
	PendingY   float64   `json:"pending_y"`

	// Attempts counts measurement attempts per dataset row, keying the
	// fault injector so a resumed retry is the same draw it would have
	// been uninterrupted.
	Attempts map[int]int `json:"attempts,omitempty"`

	Records []JSONRecord `json:"records"`
}

// JSONFloat is a float64 whose JSON encoding tolerates the non-finite
// values encoding/json rejects: NaN marshals as null, infinities as
// signed strings. Finite values use the standard shortest-round-trip
// encoding, so they survive a save/load cycle bit-exactly.
type JSONFloat float64

func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte("null"), nil
	case math.IsInf(v, 1):
		return []byte(`"+inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-inf"`), nil
	}
	return json.Marshal(v)
}

func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "null":
		*f = JSONFloat(math.NaN())
		return nil
	case `"+inf"`:
		*f = JSONFloat(math.Inf(1))
		return nil
	case `"-inf"`:
		*f = JSONFloat(math.Inf(-1))
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// JSONRecord mirrors IterationRecord with NaN-safe floats (RMSE and
// Coverage are NaN when the partition has no Test set).
type JSONRecord struct {
	Iter     int       `json:"iter"`
	Row      int       `json:"row"`
	SDChosen JSONFloat `json:"sd_chosen"`
	AMSD     JSONFloat `json:"amsd"`
	RMSE     JSONFloat `json:"rmse"`
	Coverage JSONFloat `json:"coverage"`
	CumCost  JSONFloat `json:"cum_cost"`
	LML      JSONFloat `json:"lml"`
	Noise    JSONFloat `json:"noise"`
	Train    int       `json:"train"`
}

func ToJSONRecord(r IterationRecord) JSONRecord {
	return JSONRecord{
		Iter: r.Iter, Row: r.Row, SDChosen: JSONFloat(r.SDChosen),
		AMSD: JSONFloat(r.AMSD), RMSE: JSONFloat(r.RMSE), Coverage: JSONFloat(r.Coverage),
		CumCost: JSONFloat(r.CumCost), LML: JSONFloat(r.LML), Noise: JSONFloat(r.Noise),
		Train: r.Train,
	}
}

func FromJSONRecord(r JSONRecord) IterationRecord {
	return IterationRecord{
		Iter: r.Iter, Row: r.Row, SDChosen: float64(r.SDChosen),
		AMSD: float64(r.AMSD), RMSE: float64(r.RMSE), Coverage: float64(r.Coverage),
		CumCost: float64(r.CumCost), LML: float64(r.LML), Noise: float64(r.Noise),
		Train: r.Train,
	}
}

// AtomicWriteJSON marshals v and writes it to path atomically: a temp
// file in the target directory, fsynced, then renamed over the
// destination — a crash mid-write leaves the previous file intact. It
// is the durability primitive behind both the loop checkpoints here and
// the serving layer's per-campaign journals.
func AtomicWriteJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("al: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.json")
	if err != nil {
		return fmt.Errorf("al: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("al: write checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("al: commit checkpoint: %w", err)
	}
	return nil
}

// Save writes the checkpoint atomically via AtomicWriteJSON.
func (ck *Checkpoint) Save(path string) error {
	if err := AtomicWriteJSON(path, ck); err != nil {
		return err
	}
	checkpointsSaved.Inc()
	obs.Emit("al.checkpoint.saved", map[string]any{
		"path": path, "next_iter": ck.NextIter, "train": len(ck.Train),
	})
	return nil
}

// LoadCheckpoint reads and validates a checkpoint written by Save.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("al: read checkpoint: %w", err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("al: parse checkpoint %s: %w", path, err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("al: checkpoint %s has version %d, want %d", path, ck.Version, CheckpointVersion)
	}
	if len(ck.Train) != len(ck.TrainY) {
		return nil, fmt.Errorf("al: checkpoint %s: %d train rows but %d responses", path, len(ck.Train), len(ck.TrainY))
	}
	if ck.RefitN < 0 || ck.RefitN > len(ck.Train) {
		return nil, fmt.Errorf("al: checkpoint %s: refit prefix %d outside train size %d", path, ck.RefitN, len(ck.Train))
	}
	return &ck, nil
}

// Resume loads the checkpoint at path and continues the loop it
// describes to completion. cfg must match the run that wrote the
// checkpoint (same Response, Strategy, kernel, and fault setup); the
// stationary parts of the state — dataset and partition — are the
// caller's to reproduce. The returned Result spans the whole run:
// records from before the checkpoint plus those of the resumed
// iterations, indistinguishable from an uninterrupted run.
func Resume(ds *dataset.Dataset, part dataset.Partition, cfg LoopConfig, path string) (Result, error) {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return Result{}, err
	}
	return ResumeFrom(ds, part, cfg, ck)
}

// ResumeFrom is Resume with an already loaded checkpoint.
func ResumeFrom(ds *dataset.Dataset, part dataset.Partition, cfg LoopConfig, ck *Checkpoint) (Result, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if ck.Response != c.Response {
		return Result{}, fmt.Errorf("al: checkpoint models response %q, config asks for %q", ck.Response, c.Response)
	}
	if ck.Strategy != c.Strategy.Name() {
		return Result{}, fmt.Errorf("al: checkpoint used strategy %q, config uses %q", ck.Strategy, c.Strategy.Name())
	}
	if normalizeModel(ck.Model) != normalizeModel(c.Model) {
		return Result{}, fmt.Errorf("al: checkpoint used model tier %q, config uses %q", normalizeModel(ck.Model), normalizeModel(c.Model))
	}
	if err := part.Validate(ds); err != nil {
		return Result{}, err
	}
	if len(ck.RefitHyper) == 0 {
		return Result{}, errors.New("al: checkpoint carries no fitted model state")
	}

	// The session starts from the full Active pool (its iteration bound
	// defaults from it, as in the uninterrupted run); the loop state and
	// the RNG position are then the checkpoint's.
	prob := datasetProblem(ds, part, c.Response)
	prob.Train, prob.TrainY = ck.Train, ck.TrainY
	cfg.Seed = ck.Seed
	s, err := NewSession(prob, cfg, nil)
	if err != nil {
		return Result{}, err
	}
	if err := checkPool(ck.Pool, prob.X.Rows()); err != nil {
		return Result{}, err
	}
	s.rng, s.cs = newCountingRand(ck.Seed, ck.Draws)
	s.pool = append(make([]int, 0, len(ck.Pool)), ck.Pool...)
	s.cumCost = ck.CumCost
	s.amsdHist = append([]float64(nil), ck.AMSDHist...)
	if ck.Attempts != nil {
		s.attempts = ck.Attempts
	}
	s.hasPending = ck.HasPending
	s.pendingX = append([]float64(nil), ck.PendingX...)
	s.pendingY = ck.PendingY
	s.refitHyper = append([]float64(nil), ck.RefitHyper...)
	s.refitLogSN = ck.RefitLogSN
	s.refitN = ck.RefitN
	s.iter = ck.NextIter
	for _, r := range ck.Records {
		s.records = append(s.records, FromJSONRecord(r))
	}

	// Rebuild the model exactly: an exact-hyperparameter fit over the
	// refit prefix through the configured tier, then the same
	// incremental update chain the live loop ran. The pending point
	// (when present) is deliberately NOT conditioned in here — the
	// first resumed iteration consumes it, as the live loop would have.
	modelN := len(s.train)
	if s.hasPending {
		modelN--
	}
	if modelN < s.refitN {
		return Result{}, fmt.Errorf("al: checkpoint model covers %d points but refit prefix is %d", modelN, s.refitN)
	}
	gcfg := gp.Config{Kernel: c.NewKernel(prob.X.Cols()), Normalize: c.Normalize}
	trainX := pickRows(prob.X, s.train)
	model, err := s.fitter.atHypers(gcfg, pickRows(prob.X, s.train[:s.refitN]), s.trainY[:s.refitN], ck.RefitHyper, ck.RefitLogSN)
	if err != nil {
		return Result{}, fmt.Errorf("al: resume refit: %w", err)
	}
	for j := s.refitN; j < modelN; j++ {
		model, err = model.UpdateWithPoint(trainX.RawRow(j), s.trainY[j])
		if err != nil {
			return Result{}, fmt.Errorf("al: resume update at train index %d: %w", j, err)
		}
	}
	s.model = model

	obs.Emit("al.resume", map[string]any{
		"next_iter": ck.NextIter, "train": len(s.train), "draws": ck.Draws,
	})
	return drive(s, measureFunc(ds, c))
}
