package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/service"
	"repro/internal/trace"
)

// trainModel trains the served model in-process: the training set from the
// paper's measured condition database, then the forest seeded seed+1,
// exactly as caai.Train (and so caai-serve -train) does.
func trainModel() (*model, error) {
	start := time.Now()
	ds, err := core.GenerateTrainingSet(netem.MeasuredDatabase(), core.TrainingConfig{
		ConditionsPerPair: modelTrain,
		Seed:              modelSeed,
	})
	if err != nil {
		return nil, err
	}
	mid := time.Now()
	f := forest.Train(ds, forest.Config{Seed: modelSeed + 1})
	return &model{
		id:          core.NewIdentifier(f),
		trainingSet: mid.Sub(start),
		forestTrain: time.Since(mid),
	}, nil
}

// outcome is the part of an identification the output checks compare.
type outcome struct {
	Label      string
	Confidence float64
	Valid      bool
	Special    string
	Reason     string
}

// outcomeOf maps a pipeline identification the way the service renders
// it on the wire (label and confidence only for a valid, ordinary trace).
func outcomeOf(id core.Identification) outcome {
	o := outcome{Valid: id.Valid}
	switch {
	case !id.Valid:
		o.Reason = string(id.Reason)
	case id.Special != trace.SpecialNone:
		o.Special = id.Special.String()
	default:
		o.Label, o.Confidence = id.Label, id.Confidence
	}
	return o
}

func outcomeOfResponse(r *service.IdentifyResponse) outcome {
	return outcome{Label: r.Label, Confidence: r.Confidence, Valid: r.Valid, Special: r.Special, Reason: r.Reason}
}

// provenance records what a result was measured on and with.
func provenance(b *bench) map[string]any {
	return map[string]any{
		"workload":    b.workload,
		"seed":        b.seed,
		"seconds":     b.seconds.Seconds(),
		"trace":       b.trace,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"connections": b.conns,
		"cpu_model":   cpuModel(),
		"go_version":  runtime.Version(),
		"commit":      commit(),
		"rate_ladder": missLadder(b.seconds),
		"model_train": modelTrain,
		"model_seed":  modelSeed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source under test: the git HEAD when the checkout is a
// repository, otherwise a SHA-256 over the module's Go sources and go.mod
// files ("tree:" prefix), so two unlabelled checkouts still compare.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p + "\x00"))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
