// Command samtrain trains a SAM normal-condition profile for a given
// topology and routing protocol by running repeated clean route discoveries,
// and writes the profile as JSON (for samsim -profile or library use).
//
// Usage:
//
//	samtrain [-topo cluster|uniform6x6|uniform10x6|random] [-tier K]
//	         [-protocol mr|smr|dsr|aomdv|aodv|mdsr] [-runs N] [-parallel P]
//	         [-seed S] [-o profile.json] [-snapshot] [-name NAME]
//	         [-progress] [-log-format text|json]
//
// -snapshot switches the output to samserve's snapshot format (header line
// plus one profile record), so a trained profile can seed a samserve
// -snapshot file directly; -name sets the record's store name (default: the
// name /v1/train/batch gives the scenario, e.g. cluster-1tier-MR).
//
// Training is the service's batch-training fold (cli.Train) over the same
// scenario cells, so the record is byte-identical to the profile
// POST /v1/train/batch installs for the same scenario, -seed and -runs.
// Discoveries run on a worker pool (-parallel, default all cores) and fold
// into the trainer in run order — the emitted profile is byte-identical for
// any parallelism, including -parallel 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"log/slog"
	"os"
	"strings"

	"samnet/internal/cli"
	"samnet/internal/obs"
	"samnet/internal/service"
)

// logger is the command's structured logger, set before any work begins.
var logger = slog.Default()

func main() {
	var (
		topoName  = flag.String("topo", "cluster", "topology: cluster, uniform6x6, uniform10x6, random")
		tier      = flag.Int("tier", 1, "transmission range in grid spacings")
		protoName = flag.String("protocol", "mr", "routing protocol: "+strings.Join(cli.ProtocolNames, ", "))
		runs      = flag.Int("runs", 30, "training route discoveries")
		parallel  = flag.Int("parallel", 0, "worker pool size (0 = all cores, 1 = serial)")
		seed      = flag.Uint64("seed", 2005, "master seed")
		out       = flag.String("o", "", "output file (default stdout)")
		snapshot  = flag.Bool("snapshot", false, "emit samserve snapshot format instead of bare profile JSON")
		name      = flag.String("name", "", "store name for -snapshot records (default: the /v1/train/batch profile name)")
		progress  = flag.Bool("progress", false, "report run progress (runs/s, ETA) on stderr")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.Parse()

	var err error
	if logger, err = cli.NewLogger(*logFormat); err != nil {
		fatal(err)
	}

	sc, err := cli.Resolve(*topoName, *tier, *protoName)
	if err != nil {
		fatal(err)
	}
	logger.Info("training", "label", sc.Label, "runs", *runs, "seed", *seed)

	// The runner announces the run count via Start, so the tracker begins
	// with an empty total. It observes completion counts only, so it cannot
	// perturb the emitted profile.
	var pr *obs.Progress
	if *progress {
		pr = obs.NewProgress(os.Stderr, "samtrain", 0)
	}
	trainer := cli.Train([]cli.Scenario{sc}, *seed, *runs, *parallel, pr)[0]
	pr.Finish()
	profile, err := trainer.Profile()
	if err != nil {
		fatal(err)
	}

	var blob []byte
	if *snapshot {
		// Snapshot output: the exact file samserve -snapshot restores on
		// boot. A freshly trained profile's adaptive means are its trained
		// means — the low-pass filter's starting point.
		recName := *name
		if recName == "" {
			recName = sc.ProfileName()
		}
		var buf bytes.Buffer
		if err := service.WriteSnapshotHeader(&buf); err != nil {
			fatal(err)
		}
		rec := service.ProfileResponse{
			Name:     recName,
			Runs:     trainer.Runs(),
			PMaxMean: profile.PMax.Mean,
			PhiMean:  profile.Phi.Mean,
			Profile:  profile,
		}
		if err := service.WriteSnapshotRecord(&buf, rec); err != nil {
			fatal(err)
		}
		blob = buf.Bytes()
	} else {
		if blob, err = json.MarshalIndent(profile, "", "  "); err != nil {
			fatal(err)
		}
		blob = append(blob, '\n')
	}
	if *out == "" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fatal(err)
	}
	logger.Info("trained", "label", sc.Label, "runs", trainer.Runs(),
		"pmax", profile.PMax.String(), "phi", profile.Phi.String())
}

func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}
