package cliflag

import (
	"flag"
	"os"
	"strconv"

	"overlapsim/internal/sweep"
)

// Replay collects the replay-engine performance knob shared by every
// sweep-running command (sweep, campaign, worker, serve). It is a pure
// performance switch: results are identical for any setting.
type Replay struct {
	// Par is the parallel replay width: >= 2 shards each eligible replay
	// across that many private event queues (conservative-window DES).
	Par int
}

// EnvReplayPar reads the OVERLAPSIM_REPLAY_PAR environment default for
// -replay-par; unset, empty or unparsable values mean 0 (sequential).
func EnvReplayPar() int {
	v := os.Getenv("OVERLAPSIM_REPLAY_PAR")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// RegisterReplay adds -replay-par to fs. The parallel width defaults to
// OVERLAPSIM_REPLAY_PAR so operators can switch a whole deployment without
// touching command lines.
func RegisterReplay(fs *flag.FlagSet) *Replay {
	r := &Replay{}
	fs.IntVar(&r.Par, "replay-par", EnvReplayPar(),
		"parallel replay shards per point; >= 2 enables the conservative-window engine on eligible replays (default $OVERLAPSIM_REPLAY_PAR)")
	return r
}

// Apply configures a sweep runner with the selected knob.
func (r *Replay) Apply(run *sweep.Runner) {
	run.ReplayPar = r.Par
}
