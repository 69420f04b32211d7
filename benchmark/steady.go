package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// The steadiness kit. A benchmark is only usable if the same commit, run
// twice, agrees with itself within the bounds it will hold later commits
// to. -runs makes a run set the way the driver does (one process per run,
// a new seed each time, workloads taking turns); -compare holds two run
// sets to the bounds.

// runSet is the file -runs writes and -compare reads.
type runSet struct {
	Environment environment                     `json:"environment"`
	Runs        int                             `json:"runs"`
	FirstSeed   int64                           `json:"first_seed"`
	Seconds     int                             `json:"seconds"`
	Values      map[string]map[string][]float64 `json:"values"` // workload -> metric -> one value per run
}

// resultLine is the driver-facing line, as the kit reads it back.
type resultLine struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func parseResultLine(stdout []byte) (resultLine, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var r resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("parse result line %q: %w", lines[len(lines)-1], err)
	}
	return r, nil
}

func steadiness(out io.Writer, o options, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("find own executable: %w", err)
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	defs, traceArg := endToEnd, "0"
	if o.trace {
		defs, traceArg = perLayer, "1"
	}
	set := runSet{Environment: newEnvironment(), Runs: runs, FirstSeed: o.seed, Seconds: o.seconds,
		Values: map[string]map[string][]float64{}}
	for i := 0; i < runs; i++ {
		for _, name := range names {
			args := []string{"--workload", name, "--seed", strconv.FormatInt(o.seed+int64(i), 10),
				"--seconds", strconv.Itoa(o.seconds), "--trace", traceArg,
				"-out", o.outDir}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			t0 := time.Now()
			stdout, err := cmd.Output() // starts the child and waits for it
			if err != nil {
				return fmt.Errorf("run %d of %s: %w\n%s", i, name, err, stderr.Bytes())
			}
			r, err := parseResultLine(stdout)
			if err != nil {
				return err
			}
			if !r.Correct || r.Failed != 0 {
				return fmt.Errorf("run %d of %s: correct=%v failed=%d\n%s", i, name, r.Correct, r.Failed, stderr.Bytes())
			}
			if set.Values[name] == nil {
				set.Values[name] = map[string][]float64{}
			}
			for _, d := range defs {
				set.Values[name][d.name] = append(set.Values[name][d.name], r.Metrics[d.name].Value)
			}
			if !o.trace {
				// What the child measured before scaling, from its result file.
				speed, raw, err := readAsMeasured(filepath.Join(o.outDir, "result-"+name+".json"))
				if err != nil {
					return err
				}
				set.Values[name]["machine_speed"] = append(set.Values[name]["machine_speed"], speed)
				for metric, v := range raw {
					set.Values[name]["as_measured."+metric] = append(set.Values[name]["as_measured."+metric], v)
				}
			}
			fmt.Fprintf(o.log, "run %d/%d %s seed %d: %.1fs wall\n", i+1, runs, name, o.seed+int64(i), time.Since(t0).Seconds())
		}
	}

	fmt.Fprintf(out, "%-13s %-22s %14s %14s %14s %8s %12s\n", "workload", "metric", "q1", "median", "q3", "spread", "as measured")
	for _, name := range names {
		for _, d := range defs {
			vals := set.Values[name][d.name]
			q1, q3 := vals[0], vals[0]
			if len(vals) >= 2 {
				q1, _, q3 = quartiles(vals)
			}
			fmt.Fprintf(out, "%-13s %-22s %14.6g %14.6g %14.6g %7.2f%%", name, d.name, q1, median(vals), q3, 100*spread(vals))
			if raw := set.Values[name]["as_measured."+d.name]; len(raw) > 0 {
				fmt.Fprintf(out, " %11.2f%%", 100*spread(raw)) // the spread before scaling to the reference machine
			}
			fmt.Fprintln(out)
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("create output directory: %w", err)
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return fmt.Errorf("encode run set: %w", err)
	}
	file := filepath.Join(o.outDir, fmt.Sprintf("runs-seed%d-n%d.json", o.seed, runs))
	if err := os.WriteFile(file, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write run set: %w", err)
	}
	fmt.Fprintln(out, "run set written to", file)
	return nil
}

func readAsMeasured(path string) (speed float64, raw map[string]float64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("read result file: %w", err)
	}
	var doc struct {
		Speed float64            `json:"machine_speed"`
		Raw   map[string]float64 `json:"as_measured"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return doc.Speed, doc.Raw, nil
}

// verdictOf compares one metric of one workload across two run sets: base
// a, candidate b.
//
//	regressed   b's median is worse than a's by more than the bound
//	unresolved  a spread is wider than the bound, so the medians cannot say
//	            (unless every run of b is better than every run of a)
//	ok          otherwise
func verdictOf(d metricDef, a, b []float64) (status string, worse float64) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if d.higher {
		worse = -worse
	}
	if spread(a) > d.bound || spread(b) > d.bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if (d.higher && y <= x) || (!d.higher && y >= x) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", worse
		}
		return "ok", worse
	}
	if worse > d.bound {
		return "regressed", worse
	}
	return "ok", worse
}

func readRunSet(path string) (runSet, error) {
	var s runSet
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read run set: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse run set %s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the ratio b/a (base a), the bound and the verdict.
func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "base a = %s (%d runs), b = %s (%d runs)\n", pathA, a.Runs, pathB, b.Runs)
	fmt.Fprintf(out, "%-13s %-22s %14s %14s %9s %6s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "b/a", "bound", "spread a", "spread b", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.Values[w.name][d.name], b.Values[w.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			status, _ := verdictOf(d, va, vb)
			regressed = regressed || status == "regressed"
			fmt.Fprintf(out, "%-13s %-22s %14.6g %14.6g %9.4f %6.2f %7.2f%% %7.2f%%  %s\n",
				w.name, d.name, median(va), median(vb), ratio(median(vb), median(va)), d.bound,
				100*spread(va), 100*spread(vb), status)
		}
	}
	return regressed, nil
}
