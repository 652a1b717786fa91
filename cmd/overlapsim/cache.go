package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"overlapsim/internal/stats"
	"overlapsim/internal/sweep"
	"overlapsim/internal/units"
)

// runCache operates on a shared -cache-dir: `ls` shows every entry of
// both caches (trace/profile pairs and replay results) and any orphaned
// partial writes, `prune` removes entries by version, age, or a
// total-size budget. The policies and their
// rationale are documented in docs/OPERATIONS.md.
func runCache(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("cache wants a subcommand: ls or prune")
	}
	switch args[0] {
	case "ls":
		return runCacheLs(args[1:], stdout)
	case "prune":
		return runCachePrune(args[1:], stdout)
	default:
		return fmt.Errorf("unknown cache subcommand %q (want ls or prune)", args[0])
	}
}

func runCacheLs(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cache ls", flag.ExitOnError)
	dir := fs.String("dir", "", "cache directory (the sweep/serve -cache-dir) (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || fs.NArg() != 0 {
		return fmt.Errorf("cache ls wants -dir <cache-dir> and no positional arguments")
	}
	entries, err := sweep.CacheEntries(*dir)
	if err != nil {
		return err
	}
	tb := stats.NewTable("kind", "key", "version", "size", "age", "modified")
	var total int64
	now := time.Now()
	for _, e := range entries {
		total += e.Size
		version := e.Version
		if !e.Current() {
			version += " (stale)"
		}
		tb.AddRow(e.Kind, e.Key, version, units.Bytes(e.Size).String(),
			formatAge(now.Sub(e.ModTime)), e.ModTime.Format(time.DateTime))
	}
	if err := tb.Render(stdout); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%d entries, %s total\n", len(entries), units.Bytes(total))
	return nil
}

func runCachePrune(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cache prune", flag.ExitOnError)
	dir := fs.String("dir", "", "cache directory (the sweep/serve -cache-dir) (required)")
	stale := fs.Bool("stale", false, "remove entries with a non-current key version (they can never hit again)")
	maxAge := fs.Duration("max-age", 0, "remove entries not written for this long (e.g. 720h)")
	maxSize := fs.String("max-size", "", "total-size budget (e.g. 500MB); oldest entries are evicted until the rest fit")
	dryRun := fs.Bool("dry-run", false, "report what would be removed without removing anything")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || fs.NArg() != 0 {
		return fmt.Errorf("cache prune wants -dir <cache-dir> and no positional arguments")
	}
	policy := sweep.PrunePolicy{Stale: *stale, MaxAge: *maxAge}
	if *maxSize != "" {
		b, err := units.ParseBytes(*maxSize)
		if err != nil {
			return fmt.Errorf("bad -max-size: %w", err)
		}
		policy.MaxSize = int64(b)
	}
	if policy.Empty() {
		return fmt.Errorf("cache prune wants at least one criterion: -stale, -max-age or -max-size")
	}

	entries, err := sweep.CacheEntries(*dir)
	if err != nil {
		return err
	}
	doomed, kept := policy.Plan(entries)
	verb := "removed"
	if *dryRun {
		verb = "would remove"
	}
	var doomedSize, keptSize int64
	for _, e := range doomed {
		doomedSize += e.Size
		fmt.Fprintf(stdout, "%s %s %s (%s)\n", verb, e.Kind, e.Key, units.Bytes(e.Size))
		if !*dryRun {
			if err := sweep.RemoveCacheEntry(e); err != nil {
				return err
			}
		}
	}
	for _, e := range kept {
		keptSize += e.Size
	}
	fmt.Fprintf(stdout, "%s %d of %d entries (%s); %d kept (%s)\n",
		verb, len(doomed), len(entries), units.Bytes(doomedSize), len(kept), units.Bytes(keptSize))
	return nil
}

// formatAge renders a wall-clock age coarsely — cache operators care
// about "minutes vs weeks", not sub-second precision.
func formatAge(d time.Duration) string {
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%ds", int(d.Seconds()))
	case d < time.Hour:
		return fmt.Sprintf("%dm", int(d.Minutes()))
	case d < 48*time.Hour:
		return fmt.Sprintf("%dh", int(d.Hours()))
	default:
		return fmt.Sprintf("%dd", int(d.Hours()/24))
	}
}
