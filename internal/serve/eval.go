package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/lstm"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/runner"
	"pathfinder/internal/trace"
)

// EvalRequest is the JSON body of a FrameEval: one evaluation cell to run
// on the shared engine pool. Req correlates the asynchronous reply.
type EvalRequest struct {
	// Req is an opaque client-chosen correlation id echoed in the reply.
	Req uint64 `json:"req"`
	// Trace names the workload to evaluate on (see pathfinder.Workloads).
	Trace string `json:"trace"`
	// Prefetcher names the technique (see NewPrefetcherByName).
	Prefetcher string `json:"prefetcher"`
	// Loads / Seed / Budget override the runner defaults when non-zero.
	Loads  int   `json:"loads,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	Budget int   `json:"budget,omitempty"`
}

// EvalResponse is the JSON body of a FrameEvalResult.
type EvalResponse struct {
	Req         uint64         `json:"req"`
	Error       string         `json:"error,omitempty"`
	Metrics     runner.Metrics `json:"metrics"`
	BaselineIPC float64        `json:"baseline_ipc,omitempty"`
	Cycles      uint64         `json:"cycles,omitempty"`
	WallNanos   int64          `json:"wall_nanos,omitempty"`
}

// NewPrefetcherByName builds the named online technique. It and JobFor
// are the technique registry: every front end (pfsim, pfserved sessions,
// eval requests, pfsweep grids, the experiments) resolves technique names
// through them, and this is the authoritative list. Names are
// case-insensitive; seed 0 selects each technique's default seed. Each
// name is followed by the label its results carry:
//
//	none, nopf, ""               NoPF
//	nextline, nl                 NextLine
//	bo, bestoffset, best-offset  BO
//	bo-throttled                 BO+FDP            Best-Offset under FDP throttling
//	spp                          SPP
//	sisb                         SISB              idealized ISB
//	isb                          ISB
//	pythia                       Pythia
//	stride                       Stride
//	vldp                         VLDP
//	sms                          SMS
//	nextpage                     NextPage
//	pathfinder, pf               Pathfinder
//	pathfinder-1tick             Pathfinder-1tick  1-tick inference (§3.4)
//	pf+nl                        PF+NL             fixed-priority ensembles (§5)
//	pf+nl+sisb, ensemble         PF+NL+SISB
//	dynamic-ensemble             DynPF+SISB+NL     usefulness-scored ensemble
//	deltalstm, delta-lstm        DeltaLSTM         offline; JobFor only
//	voyager                      Voyager           offline; JobFor only
//
// The offline generators produce prefetch files, not online prefetchers,
// so only JobFor builds them.
func NewPrefetcherByName(name string, seed int64) (prefetch.Prefetcher, error) {
	t, err := lookup(name, seed)
	if err != nil {
		return nil, err
	}
	if t.online == nil {
		return nil, fmt.Errorf("serve: %q is an offline technique with no online prefetcher; evaluate it as a job", name)
	}
	return t.online()
}

// JobFor translates an EvalRequest into a runner job through the
// technique registry (see NewPrefetcherByName for the names). The serving
// daemon, the distributed sweep (internal/dist, whose workers rebuild
// coordinator-granted cells from serializable specs through it) and the
// experiments build their jobs here. An online technique becomes a
// job.New factory, an offline one (Delta-LSTM / Voyager) a job.GenFile;
// an unknown name fails here, before any cell runs.
//
// The PATHFINDER of pathfinder, pathfinder-1tick, pf+nl, pf+nl+sisb and
// dynamic-ensemble is built as a prefetch.Shared keyed by its full
// core.Config. Its advice depends only on that configuration and on the
// accesses and budget it sees, so a runner records it once per trace and
// budget and replays the recording to every cell holding it, with
// bit-identical results; the network is built only for the recording.
func JobFor(req EvalRequest) (runner.Job, error) {
	t, err := lookup(req.Prefetcher, req.Seed)
	if err != nil {
		return runner.Job{}, err
	}
	job := runner.Job{
		Trace:   req.Trace,
		Loads:   req.Loads,
		Seed:    req.Seed,
		Label:   t.label,
		New:     t.online,
		GenFile: t.offline,
	}
	if t.pf != nil {
		cfg, wrap := *t.pf, t.wrap
		key := fmt.Sprintf("%#v", cfg)
		job.New = func() (prefetch.Prefetcher, error) {
			return wrap(prefetch.NewShared("Pathfinder", key, func() (prefetch.Prefetcher, error) {
				return newPathfinder(cfg)
			})), nil
		}
	}
	if req.Budget > 0 {
		job.Budget = req.Budget
	}
	return job, nil
}

// technique is one resolved registry entry: exactly one of online and
// offline is set. label names the technique where its prefetcher's Name()
// does not; it becomes the job label, which is part of the runner's
// journal cell key, so it is empty wherever Name() suffices. pf, when set,
// is the configuration of the PATHFINDER an online technique is built
// around, and wrap builds the technique around that member.
type technique struct {
	label   string
	online  func() (prefetch.Prefetcher, error)
	offline func(ctx context.Context, accs []trace.Access) ([]trace.Prefetch, error)
	pf      *core.Config
	wrap    func(prefetch.Prefetcher) prefetch.Prefetcher
}

// newPathfinder builds a PATHFINDER as a prefetch.Prefetcher.
func newPathfinder(cfg core.Config) (prefetch.Prefetcher, error) {
	pf, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return pf, nil
}

// lookup resolves one registry name for a seed; it is the only place a
// technique name is decoded.
func lookup(name string, seed int64) (technique, error) {
	withPF := func(label string, oneTick bool, wrap func(pf prefetch.Prefetcher) prefetch.Prefetcher) technique {
		cfg := core.DefaultConfig()
		if seed != 0 {
			cfg.Seed = seed
		}
		cfg.OneTick = oneTick
		return technique{label: label, pf: &cfg, wrap: wrap, online: func() (prefetch.Prefetcher, error) {
			pf, err := newPathfinder(cfg)
			if err != nil {
				return nil, err
			}
			return wrap(pf), nil
		}}
	}
	alone := func(pf prefetch.Prefetcher) prefetch.Prefetcher { return pf }
	switch strings.ToLower(name) {
	case "", "nopf", "none":
		return tableTech(func() prefetch.NoPrefetch { return prefetch.NoPrefetch{} }), nil
	case "nextline", "nl":
		return tableTech(func() *prefetch.NextLine { return &prefetch.NextLine{} }), nil
	case "bo", "bestoffset", "best-offset":
		return tableTech(prefetch.NewBestOffset), nil
	case "bo-throttled":
		return tableTech(func() *prefetch.Throttle { return prefetch.NewThrottle(prefetch.NewBestOffset()) }), nil
	case "spp":
		return tableTech(prefetch.NewSPP), nil
	case "sisb":
		return tableTech(prefetch.NewSISB), nil
	case "isb":
		return tableTech(prefetch.NewISB), nil
	case "pythia":
		return tableTech(func() *prefetch.Pythia { return prefetch.NewPythia(seed) }), nil
	case "stride":
		return tableTech(prefetch.NewStride), nil
	case "vldp":
		return tableTech(prefetch.NewVLDP), nil
	case "sms":
		return tableTech(prefetch.NewSMS), nil
	case "nextpage":
		return tableTech(prefetch.NewNextPage), nil
	case "pathfinder", "pf":
		return withPF("", false, alone), nil
	case "pathfinder-1tick":
		return withPF("Pathfinder-1tick", true, alone), nil
	case "pf+nl":
		return withPF("", false, func(pf prefetch.Prefetcher) prefetch.Prefetcher {
			e := prefetch.NewEnsemble(pf, &prefetch.NextLine{})
			e.Label = "PF+NL"
			return e
		}), nil
	case "pf+nl+sisb", "ensemble":
		// Fixed priority per §5: PATHFINDER first, temporal replay next,
		// next-line as last-resort filler.
		return withPF("", false, func(pf prefetch.Prefetcher) prefetch.Prefetcher {
			e := prefetch.NewEnsemble(pf, prefetch.NewSISB(), &prefetch.NextLine{})
			e.Label = "PF+NL+SISB"
			return e
		}), nil
	case "dynamic-ensemble":
		return withPF("", false, func(pf prefetch.Prefetcher) prefetch.Prefetcher {
			d := prefetch.NewDynamicEnsemble(pf, prefetch.NewSISB(), &prefetch.NextLine{})
			d.Label = "DynPF+SISB+NL"
			return d
		}), nil
	case "deltalstm", "delta-lstm":
		return technique{label: "DeltaLSTM", offline: func(ctx context.Context, accs []trace.Access) ([]trace.Prefetch, error) {
			cfg := lstm.DefaultDeltaLSTMConfig()
			if seed != 0 {
				cfg.Seed = seed
			}
			return lstm.GenerateDeltaLSTM(cfg, accs, prefetch.Budget)
		}}, nil
	case "voyager":
		return technique{label: "Voyager", offline: func(ctx context.Context, accs []trace.Access) ([]trace.Prefetch, error) {
			cfg := lstm.DefaultVoyagerConfig()
			if seed != 0 {
				cfg.Seed = seed
			}
			return lstm.GenerateVoyager(cfg, accs, prefetch.Budget)
		}}, nil
	}
	return technique{}, fmt.Errorf("serve: unknown prefetcher %q", name)
}

// tableTech wraps a table prefetcher's constructor as a registry entry.
func tableTech[P prefetch.Prefetcher](mk func() P) technique {
	return technique{online: func() (prefetch.Prefetcher, error) { return mk(), nil }}
}

// handleEval parses and launches one evaluation job; the reply is
// asynchronous (jobs can take seconds) and bounded by the eval semaphore.
func (s *Server) handleEval(c *conn, body []byte) {
	var req EvalRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.replyEval(c, EvalResponse{Error: fmt.Sprintf("bad eval request: %v", err)})
		return
	}
	if s.draining.Load() {
		s.replyEval(c, EvalResponse{Req: req.Req, Error: "draining"})
		return
	}
	bodyCopy := req // the frame buffer is reused; req is already a copy
	s.evals.Add(1)
	go func() {
		defer s.evals.Done()
		select {
		case s.evalSem <- struct{}{}:
			defer func() { <-s.evalSem }()
		case <-s.baseCtx.Done():
			s.replyEval(c, EvalResponse{Req: bodyCopy.Req, Error: "shutting down"})
			return
		}
		s.replyEval(c, s.runEval(bodyCopy))
	}()
}

// runEval executes one evaluation cell on the shared runner.
func (s *Server) runEval(req EvalRequest) EvalResponse {
	m := serveTele.Load()
	if m != nil {
		m.evals.Inc()
	}
	resp := EvalResponse{Req: req.Req}
	job, err := JobFor(req)
	if err != nil {
		resp.Error = err.Error()
		if m != nil {
			m.evalErrors.Inc()
		}
		return resp
	}
	start := time.Now()
	res, err := s.cfg.Runner.Eval(s.baseCtx, job)
	if err != nil {
		resp.Error = err.Error()
		if m != nil {
			m.evalErrors.Inc()
		}
		return resp
	}
	resp.Metrics = res.Metrics
	resp.BaselineIPC = res.BaselineIPC
	resp.Cycles = res.Cycles
	resp.WallNanos = int64(time.Since(start))
	return resp
}

// replyEval marshals and queues one eval reply.
func (s *Server) replyEval(c *conn, resp EvalResponse) {
	b, err := json.Marshal(resp)
	if err != nil {
		b = []byte(fmt.Sprintf(`{"req":%d,"error":"marshal failure"}`, resp.Req))
	}
	c.send(response{kind: FrameEvalResult, body: b})
}
