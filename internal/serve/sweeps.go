package serve

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/serve/api"
	"repro/internal/sweepdef"
)

// Declarative experiments: a directory of sweeps/*.yaml definitions
// (package sweepdef) registered as named, parameterized endpoints.
// GET /v1/experiments lists them with their parameter schemas;
// POST /v1/experiments/{name} binds parameters and runs the compiled
// grid through the normal sweep path — so auth, deadlines, the cache
// tiers and metrics all apply to a declarative run exactly as they do
// to a hand-built sweep.
// The set is swapped atomically by ReloadSweepDefs (the CLI wires SIGHUP
// to it, next to the token reload), so adding a scenario is editing a
// file, not rebuilding a binary.

// sweepSet is the live definition set (nil when none registered).
func (s *Server) sweepSet() *sweepdef.Set { return s.sweeps.Load() }

// SweepDefNames lists the registered definition names, sorted.
func (s *Server) SweepDefNames() []string { return s.sweepSet().Names() }

// ReloadSweepDefs swaps in a new definition set without a restart — the
// SIGHUP path, also used for boot registration by the CLI. The set must
// be non-empty and no definition may shadow a built-in experiment name
// (the two run through different endpoints, but one name meaning two
// grids would make every listing ambiguous). On error the old set stays
// in force untouched. Reloads are counted in the registry
// (cimloop_sweepdef_reloads_total) and surfaced in /healthz.
func (s *Server) ReloadSweepDefs(set *sweepdef.Set) error {
	err := func() error {
		if set.Len() == 0 {
			return errors.New("serve: refusing to load an empty sweep-definition set")
		}
		if s.ExperimentNames != nil {
			builtin := map[string]bool{}
			for _, n := range s.ExperimentNames() {
				builtin[n] = true
			}
			for _, n := range set.Names() {
				if builtin[n] {
					return fmt.Errorf("serve: sweep definition %q shadows a built-in experiment", n)
				}
			}
		}
		return nil
	}()
	if err != nil {
		s.met.sweepReloads.With("error").Inc()
		return err
	}
	s.sweeps.Store(set)
	s.met.sweepReloads.With("ok").Inc()
	return nil
}

// ReloadSweepDefsDir is ReloadSweepDefs from a directory: every file is
// parsed and validated first, and the running set is swapped only when
// the whole directory is good — one broken definition leaves the old
// set serving (and the failure counted).
func (s *Server) ReloadSweepDefsDir(dir string) error {
	set, err := sweepdef.LoadDir(dir)
	if err != nil {
		s.met.sweepReloads.With("error").Inc()
		return err
	}
	return s.ReloadSweepDefs(set)
}

// handleNamedExperiment runs one registered definition:
// POST /v1/experiments/{name} with an optional api.NamedExperimentRequest
// body. The compiled grid runs synchronously exactly like POST
// /v1/sweep: 200 + api.SweepResponse.
func (s *Server) handleNamedExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	def, ok := s.sweepSet().Get(name)
	if !ok {
		if s.ExperimentNames != nil {
			for _, n := range s.ExperimentNames() {
				if n == name {
					writeAPIError(w, http.StatusBadRequest, api.Errorf(api.CodeInvalidRequest,
						"%q is a built-in experiment; run it via POST /v1/experiments", name))
					return
				}
			}
		}
		writeAPIError(w, http.StatusNotFound,
			api.Errorf(api.CodeNotFound, "unknown experiment definition %q", name))
		return
	}
	var body api.NamedExperimentRequest
	if !s.decodeJSONOptional(w, r, &body) {
		return
	}
	reqs, err := def.Compile(body.Params)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, api.Errorf(api.CodeInvalidRequest, "%v", err))
		return
	}
	s.runSweep(w, r, reqs, body.TimeoutSec)
}
