// Command benchmark is the repository's performance benchmark: four long
// workloads over the simulator, measured end to end (tracing off) and,
// in a separate traced run, layer by layer. See README.md in this
// directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                                   every workload, end-to-end metrics
//	go run ./benchmark -workload solver-beam -seed 7     one workload
//	go run ./benchmark -trace 1                          per-layer metrics and a span file
//	go run ./benchmark -repeat 2 -check                  do two sets agree within the bounds?
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	ensureLazyFree()
	var (
		workload = flag.String("workload", "", "workload to run (default: each one, in a fresh process)")
		seed     = flag.Uint64("seed", 42, "seed of the input generators")
		seconds  = flag.Float64("seconds", 20, "how long the timed passes measure")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: plain run reporting the end-to-end metrics")
		scale    = flag.Float64("scale", 1, "shrink every workload's request count (smoke tests)")
		passes   = flag.Int("passes", 0, "fix the timed pass count instead of measuring for -seconds")
		repeat   = flag.Int("repeat", 0, "with -check: run the whole set this many times in fresh processes")
		check    = flag.Bool("check", false, "with -repeat: print each metric's spread between sets and fail above half its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *scale <= 0 || *seconds <= 0 {
		fatal(fmt.Errorf("-scale and -seconds must be positive"))
	}
	opt := options{seed: *seed, seconds: *seconds, scale: *scale, passes: *passes, outDir: "benchmark/out", out: os.Stdout}

	switch {
	case *check || *repeat > 0:
		if *repeat < 2 || !*check {
			fatal(fmt.Errorf("-repeat N -check needs N >= 2 and both flags"))
		}
		if err := noiseCheck(*repeat, opt); err != nil {
			fatal(err)
		}
	case *workload == "":
		if _, err := runSet(opt, *trace, os.Stdout); err != nil {
			fatal(err)
		}
	default:
		w := workloadByName(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", ")))
		}
		if err := runOne(w, opt, *trace == 1); err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runOne runs one workload in this process and prints its report; the
// last line of standard output is the result object.
func runOne(w *workloadDef, opt options, traced bool) error {
	calib := calibrate()
	fmt.Printf("== %s (seed %d, %s)\n", w.name, opt.seed, map[bool]string{false: "plain run", true: "traced run"}[traced])
	fmt.Println(fingerprint(calib))
	var rep *report
	var err error
	if traced {
		rep, err = runTraced(w, opt, calib)
	} else {
		rep, err = runPlain(w, opt)
	}
	if err != nil {
		return err
	}
	for _, m := range rep.metrics {
		fmt.Printf("  %-28s %16.6f %s\n", m.name, m.value, m.unit)
	}
	line, err := rep.resultLine()
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// resultObject is the last line of a run's standard output.
type resultObject struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultLine() (string, error) {
	// A run that finds a request without a valid outcome exits non-zero
	// before it gets here, so a printed result has no failed operation.
	obj := resultObject{Correct: true, Attempted: r.attempted, Failed: 0, Metrics: map[string]metricValue{}}
	for _, m := range r.metrics {
		obj.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	data, err := json.Marshal(obj)
	return string(data), err
}

// runSet runs every workload, each in a fresh process so that none
// inherits another's heap, and returns their result objects.
func runSet(opt options, trace int, echo io.Writer) (map[string]resultObject, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := map[string]resultObject{}
	for _, w := range workloads {
		cmd := exec.Command(self,
			"-workload", w.name,
			"-seed", strconv.FormatUint(opt.seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
			"-scale", strconv.FormatFloat(opt.scale, 'g', -1, 64),
			"-passes", strconv.Itoa(opt.passes),
			"-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		last := ""
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
			if echo != nil {
				fmt.Fprintln(echo, last)
			}
		}
		// Wait also reaps the child; a scanner error surfaces as a
		// truncated last line below.
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		var obj resultObject
		if err := json.Unmarshal([]byte(last), &obj); err != nil {
			return nil, fmt.Errorf("%s: last output line is not a result object: %w", w.name, err)
		}
		set[w.name] = obj
	}
	return set, nil
}
