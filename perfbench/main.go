// Command perfbench is PartiX's benchmark. One process runs a coordinator
// with concurrent fan-out, node servers on loopback TCP and the load
// clients of one workload, checks every answer against oracles computed
// apart from the program, and prints its metrics as the last line of
// standard output:
//
//	go run . --workload scan --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// from a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: scan, join or ingest")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
		data    = flag.String("data", ".bench_build", "directory for node stores and span files")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload scan|join|ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := execute(w, *name, *seed, *seconds, *trace == 1, *data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload in a fresh directory under data and removes
// the directory afterwards.
func execute(w load, name string, seed int64, seconds int, traced bool, data string) (*result, error) {
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(data, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		name: name, seed: seed, window: time.Duration(seconds) * time.Second,
		traced: traced, dir: dir, correct: true,
	}
	if traced {
		r.tr = newTracer()
	}
	res, err := r.execute(w)
	if err != nil {
		return nil, err
	}
	if traced {
		tdir := filepath.Join(data, "traces")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return nil, err
		}
		if err := r.tr.save(filepath.Join(tdir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
			return nil, err
		}
	}
	return res, nil
}
