// Command benchmark is the repository's wire benchmark: it builds
// ./cmd/cbfww-serve, runs it as a subprocess with its existing flags,
// drives it over loopback TCP from two keep-alive connections in this one
// process, checks every response against an oracle, and prints every
// metric by name with its unit. See README.md beside this file.
//
//	go run ./benchmark -seed 1 -out benchmark/results/latest.json   # all four workloads
//	go run ./benchmark -trace 1                                     # per-layer traced run
//	go run ./benchmark -repeat 2 -out a.json                        # A B C D A B C D
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark --workload hot_small --seed 3 --seconds 8 --trace 0   # driver form
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the generated pages and op sequences")
		seconds  = flag.Int("seconds", defaultSeconds, "nominal length of a measured phase; op counts are nominal rate x seconds")
		trace    = flag.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the end-to-end run")
		scale    = flag.Float64("scale", 1, "multiplies page and op counts (tests use 0.01)")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times, interleaved")
		out      = flag.String("out", "", "write the result file here")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

	if *compare {
		if flag.NArg() != 2 {
			logf("usage: benchmark -compare a.json b.json")
			return 2
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			logf("benchmark: %v", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *seconds < 1 || *scale <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		logf("benchmark: -seconds, -scale and -repeat must be positive, -trace 0 or 1")
		return 2
	}
	todo := specs
	if *workload != "" {
		s, ok := specByName(*workload)
		if !ok {
			logf("benchmark: unknown workload %q", *workload)
			return 2
		}
		todo = []spec{s}
	}

	// Every exit path kills the daemon: normal return and panic through
	// the deferred call, Ctrl-C and SIGTERM through the handler, a killed
	// harness through the child's parent-death signal.
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	bin, err := buildDaemon()
	if err != nil {
		logf("benchmark: %v", err)
		return 1
	}
	file := resultFile{Fingerprint: takeFingerprint(), Seconds: *seconds, Scale: *scale}
	stopSpin := startSpinners()
	file.Fingerprint.Spinners = stopSpin != nil
	if stopSpin != nil {
		defer stopSpin()
	}
	correct := true
	for r := 0; r < *repeat; r++ {
		for _, s := range todo {
			o := liveOpts{seed: *seed + int64(r), seconds: *seconds, scale: *scale, share: 1, clients: 2, repeats: 3, bin: bin, logf: logf}
			if *trace == 1 {
				tr, err := runTrace(s, o)
				if err != nil {
					logf("benchmark: %v", err)
					return 1
				}
				file.Traces = append(file.Traces, tr)
				printTrace(os.Stderr, tr)
				if *out != "" {
					if err := writeSpans(filepath.Dir(*out), tr); err != nil {
						logf("benchmark: %v", err)
						return 1
					}
				}
				continue
			}
			res, err := runLive(s, o)
			if err != nil {
				logf("benchmark: %v", err)
				return 1
			}
			file.Runs = append(file.Runs, res)
			printRun(os.Stderr, res)
			if why := res.violations(s); len(why) > 0 {
				correct = false
				logf("%s: INCORRECT: %v", s.name, why)
			}
		}
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			logf("benchmark: %v", err)
			return 1
		}
	}
	if *workload != "" {
		line, err := json.Marshal(file.driverLine(correct, *trace == 1))
		if err != nil {
			logf("benchmark: %v", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !correct {
		return 1
	}
	return 0
}
