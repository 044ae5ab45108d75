package pilot

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Option configures a Session built by NewSession.
type Option func(*sessionConfig)

type sessionConfig struct {
	profile  BootstrapProfile
	seed     int64
	recorder *obs.Recorder
}

// WithProfile sets the bootstrap cost model (default: DefaultProfile).
func WithProfile(p BootstrapProfile) Option {
	return func(c *sessionConfig) { c.profile = p }
}

// WithSeed sets the session RNG seed; runs are deterministic per seed
// (default: 1).
func WithSeed(seed int64) Option {
	return func(c *sessionConfig) { c.seed = seed }
}

// WithRecorder attaches a flight recorder (NewRecorder) to the session:
// every manager built on it records unit/pilot/Data-Unit state
// transitions, scheduler bind decisions, autoscaler verdicts,
// hold/release edges, result-cache traffic and replica motion through
// r, and the Unit-Manager samples live gauges into r's Series on every
// scheduling event. Recording is strictly opt-in — without this option
// the instrumented paths cost one nil check.
func WithRecorder(r *Recorder) Option {
	return func(c *sessionConfig) { c.recorder = r }
}

// NewSession creates a session on the engine with the given options.
//
//	session := pilot.NewSession(eng, pilot.WithProfile(prof), pilot.WithSeed(42))
func NewSession(eng *sim.Engine, opts ...Option) *Session {
	cfg := sessionConfig{profile: core.DefaultProfile(), seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	s := core.NewSession(eng, cfg.profile, cfg.seed)
	if cfg.recorder != nil {
		s.AttachRecorder(cfg.recorder)
	}
	return s
}
