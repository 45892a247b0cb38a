package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// All-workloads mode: every workload, `runs` end-to-end runs on
// consecutive seeds plus one traced run, each in a fresh child process
// (this binary re-executed) so heap, obs.Default and the resident-set
// high-water mark start clean.  One child runs at a time: the load is a
// single generator process sized to the host's cores.

const resultsSchema = 1

// resultsFile is the committed trajectory format
// (results/BENCH_<pr>.<set>.json) and the input of `compare`.
type resultsFile struct {
	Schema     int         `json:"schema"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Start      string      `json:"start"` // RFC3339 UTC
	Seconds    float64     `json:"seconds"`
	Runs       []runRecord `json:"runs"`
}

// runRecord is one child run.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	runLine
	runDetail
}

type allOpts struct {
	seed    int64
	runs    int
	seconds float64
	out     string
}

func runAll(o allOpts, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if o.out == "" {
		o.out = filepath.Join(buildDir(), "results.json")
	}
	file := resultsFile{Schema: resultsSchema, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Start: time.Now().UTC().Format(time.RFC3339), Seconds: o.seconds}
	detailPath := filepath.Join(buildDir(), fmt.Sprintf("detail-%d.json", os.Getpid()))
	defer os.Remove(detailPath)

	failed := 0
	child := func(workload string, seed int64, trace int) error {
		os.Remove(detailPath)
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
			"--detail", detailPath)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		runErr := cmd.Run() // exit 1 with a result line means failed > 0
		// The child prints its metric table, then the result line.
		printed := bytes.TrimSpace(buf.Bytes())
		cut := bytes.LastIndexByte(printed, '\n') + 1
		rec := runRecord{Workload: workload, Seed: seed, Trace: trace}
		if err := json.Unmarshal(printed[cut:], &rec.runLine); err != nil {
			return fmt.Errorf("%s seed %d trace %d: no result line (%v): %v", workload, seed, trace, runErr, err)
		}
		if b, err := os.ReadFile(detailPath); err == nil {
			json.Unmarshal(b, &rec.runDetail) // written by this binary
		}
		stdout.Write(printed[:cut])
		failed += rec.Failed
		file.Runs = append(file.Runs, rec)
		return nil
	}
	for _, w := range workloads {
		for i := 0; i < o.runs; i++ {
			if err := child(w.Name, o.seed+int64(i), 0); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		if err := child(w.Name, o.seed, 1); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}

	b, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(o.out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "results: %s  (%d runs, failed operations: %d)\n", o.out, len(file.Runs), failed)
	if failed > 0 {
		return 1
	}
	return 0
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: results schema %d, this benchmark reads %d", path, f.Schema, resultsSchema)
	}
	return &f, nil
}
