package overlap

import (
	"fmt"
	"strings"

	"overlapsim/internal/trace"
)

// ParseVariant parses a trace-variant name as the CLI tools accept it:
// "original" (the untransformed trace, reported by the second return
// value), or "<pattern>-<mechanism>" with pattern in {real, linear} and
// mechanism in {both, earlysend, laterecv, prepost, none}.
func ParseVariant(v string) (Options, bool, error) {
	if v == "original" {
		return Options{}, true, nil
	}
	pattern, mech, ok := strings.Cut(v, "-")
	if !ok {
		return Options{}, false, fmt.Errorf("bad variant %q (want original or <pattern>-<mechanism>)", v)
	}
	var opts Options
	switch pattern {
	case "real":
		opts.Pattern = PatternReal
	case "linear":
		opts.Pattern = PatternLinear
	default:
		return Options{}, false, fmt.Errorf("bad pattern %q in variant %q (want real or linear)", pattern, v)
	}
	switch mech {
	case "both":
		opts.Mechanisms = BothMechanisms
	case "earlysend":
		opts.Mechanisms = EarlySend
	case "laterecv":
		opts.Mechanisms = LateRecv
	case "prepost":
		opts.Mechanisms = PrepostRecv
	case "none":
		opts.Mechanisms = 0
	default:
		return Options{}, false, fmt.Errorf("bad mechanism %q in variant %q (want both, earlysend, laterecv, prepost or none)", mech, v)
	}
	return opts, false, nil
}

// VariantSet applies a parsed variant to a profiled set: the original
// trace untouched, or the requested overlap transformation.
func VariantSet(ps *ProfiledSet, v string) (*trace.Set, error) {
	opts, original, err := ParseVariant(v)
	if err != nil {
		return nil, err
	}
	if original {
		return ps.Original, nil
	}
	return Transform(ps, opts)
}
