package cliflag

import (
	"flag"
	"fmt"

	"overlapsim/internal/sweep"
)

// Approx collects the surrogate fast path knobs shared by every sweep-
// running command (sweep, campaign, worker, serve). They trade accuracy
// for speed: with -approx on, dense numeric axes are thinned to replayed
// anchors and the rest of each family is interpolated, within the
// -approx-maxerr relative error bound the spot-check gate enforces. The
// default (-approx=false) changes nothing: output stays byte-identical to
// an exact run.
type Approx struct {
	// Enabled turns the surrogate fast path on.
	Enabled bool
	// MaxErr is the relative error bound on predicted TOriginal/TOverlap.
	MaxErr float64
	// SpotCheck is the fraction of predicted points per family that are
	// spot-replayed to validate the bound (at least one per family).
	SpotCheck float64
}

// RegisterApprox adds -approx, -approx-maxerr and -approx-spotcheck to fs.
func RegisterApprox(fs *flag.FlagSet) *Approx {
	a := &Approx{}
	fs.BoolVar(&a.Enabled, "approx", false,
		"surrogate fast path: replay only anchor points of dense numeric axes and interpolate the rest (results carry an approx column)")
	fs.Float64Var(&a.MaxErr, "approx-maxerr", sweep.DefaultApproxMaxErr,
		"relative error bound for -approx predictions; families observed beyond it are demoted to full replay")
	fs.Float64Var(&a.SpotCheck, "approx-spotcheck", sweep.DefaultApproxSpotCheck,
		"fraction in (0,1] of predicted points per family to spot-replay for the -approx error gate (at least one per family)")
	return a
}

// Validate rejects nonsensical knob values early, with the flag name in
// the message.
func (a *Approx) Validate() error {
	if a.MaxErr <= 0 {
		return fmt.Errorf("-approx-maxerr must be positive (got %g)", a.MaxErr)
	}
	if a.SpotCheck <= 0 || a.SpotCheck > 1 {
		return fmt.Errorf("-approx-spotcheck must be in (0,1] (got %g)", a.SpotCheck)
	}
	return nil
}

// Apply configures a sweep runner with the selected knobs.
func (a *Approx) Apply(run *sweep.Runner) {
	run.Approx = a.Enabled
	run.ApproxMaxErr = a.MaxErr
	run.ApproxSpotCheck = a.SpotCheck
}
