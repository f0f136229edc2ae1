// Command coverjson records the repository's per-package test coverage
// as a diffable JSON artifact and diffs two such artifacts.
//
// With -extract it parses `go test -cover ./...` output (from a file
// argument or stdin) into COVER_baseline.json: one row per package with
// its statement-coverage percentage, plus the packages that have no
// test files at all. Run via `make cover-json`.
//
// With -compare old.json new.json it prints per-package coverage deltas
// and exits non-zero when any shared package's coverage dropped by more
// than -tolerance percentage points (default 1.0). Packages present in
// only one file are reported but never fail the diff — adding or
// removing a package is not a coverage regression. Run via
// `make cover-compare`; CI runs it warn-only, like the benchmark
// baseline, because coverage of randomized soak tests can wobble.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// pkgCoverage is one row of the artifact: a package and the statement
// coverage `go test -cover` reported for it.
type pkgCoverage struct {
	Package     string  `json:"package"`
	CoveragePct float64 `json:"coverage_pct"`
}

type coverReport struct {
	Date      string        `json:"date"`
	GoVersion string        `json:"go_version"`
	Packages  []pkgCoverage `json:"packages"`
	// Untested lists packages `go test` reported as "[no test files]";
	// a package moving from Packages to Untested shows up in -compare as
	// a dropped package.
	Untested []string `json:"untested,omitempty"`
}

// parseCover reads `go test -cover ./...` output and extracts per-package
// coverage. It tolerates the format's variants:
//
//	ok  	uppnoc/internal/workload	0.186s	coverage: 85.0% of statements
//	ok  	uppnoc/internal/sim	(cached)	coverage: 92.1% of statements
//	ok  	uppnoc/examples	0.01s	coverage: [no statements]
//	?   	uppnoc/cmd/deadlock	[no test files]
//		uppnoc/cmd/deadlock		coverage: 0.0% of statements
//
// (the last is how newer toolchains report a package with no test files
// under -cover: a plain 0.0% row, recorded here as an untested package)
// and ignores everything else (test verbose output, FAIL lines, build
// noise). An input with no coverage lines at all is an error — it means
// the caller forgot -cover or piped the wrong stream.
func parseCover(r io.Reader) (coverReport, error) {
	rep := coverReport{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		switch fields[0] {
		case "?":
			if strings.Contains(line, "[no test files]") {
				rep.Untested = append(rep.Untested, fields[1])
			}
		case "ok":
			i := -1
			for j, f := range fields {
				if f == "coverage:" {
					i = j
					break
				}
			}
			if i < 0 || i+1 >= len(fields) {
				continue
			}
			if fields[i+1] == "[no" { // "coverage: [no statements]"
				continue
			}
			pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[i+1], "%"), 64)
			if err != nil {
				return rep, fmt.Errorf("unparseable coverage %q in line %q", fields[i+1], line)
			}
			rep.Packages = append(rep.Packages, pkgCoverage{Package: fields[1], CoveragePct: pct})
		default:
			// The bare no-test-files row: "<pkg>  coverage: 0.0% of
			// statements". Anything that doesn't parse cleanly here is
			// verbose test output that happened to contain "coverage:",
			// so skip rather than error.
			if len(fields) < 3 || fields[1] != "coverage:" || !strings.HasSuffix(fields[2], "%") {
				continue
			}
			if _, err := strconv.ParseFloat(strings.TrimSuffix(fields[2], "%"), 64); err != nil {
				continue
			}
			rep.Untested = append(rep.Untested, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if len(rep.Packages) == 0 {
		return rep, fmt.Errorf("no coverage lines found (was the input produced by `go test -cover ./...`?)")
	}
	sort.Slice(rep.Packages, func(i, j int) bool { return rep.Packages[i].Package < rep.Packages[j].Package })
	sort.Strings(rep.Untested)
	return rep, nil
}

func loadCoverFile(path string) (coverReport, error) {
	var rep coverReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Packages) == 0 {
		return rep, fmt.Errorf("%s: no packages (is this a COVER_*.json file?)", path)
	}
	return rep, nil
}

// compareReports diffs two coverage artifacts and returns the number of
// shared packages whose coverage dropped by more than tolerance
// percentage points. New and dropped packages are reported but never
// counted as regressions.
func compareReports(oldRep, newRep coverReport, tolerance float64, w io.Writer) int {
	oldRows := map[string]float64{}
	for _, p := range oldRep.Packages {
		oldRows[p.Package] = p.CoveragePct
	}
	fmt.Fprintf(w, "%-40s %9s %9s %8s\n", "package", "old %", "new %", "delta")
	regressions := 0
	seen := map[string]bool{}
	for _, p := range newRep.Packages {
		seen[p.Package] = true
		old, ok := oldRows[p.Package]
		if !ok {
			fmt.Fprintf(w, "%-40s %9s %9.1f %8s (new package)\n", p.Package, "-", p.CoveragePct, "-")
			continue
		}
		delta := p.CoveragePct - old
		status := ""
		if delta < -tolerance {
			status = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-40s %9.1f %9.1f %+7.1fpp%s\n", p.Package, old, p.CoveragePct, delta, status)
	}
	for _, p := range oldRep.Packages {
		if !seen[p.Package] {
			fmt.Fprintf(w, "%-40s %9.1f %9s %8s (dropped package)\n", p.Package, p.CoveragePct, "-", "-")
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "\n%d package(s) lost more than %.1f coverage points\n", regressions, tolerance)
	} else {
		fmt.Fprintf(w, "\nno package lost more than %.1f coverage points\n", tolerance)
	}
	return regressions
}

func main() {
	extract := flag.Bool("extract", false, "parse `go test -cover` output (file argument or stdin) into a COVER JSON artifact")
	compare := flag.Bool("compare", false, "diff two COVER_*.json files: coverjson -compare old.json new.json")
	tolerance := flag.Float64("tolerance", 1.0, "with -compare, per-package coverage drop (percentage points) that fails the diff")
	out := flag.String("out", "COVER_baseline.json", "with -extract, output JSON path")
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "coverjson: -compare needs exactly two files: coverjson -compare old.json new.json")
			os.Exit(2)
		}
		oldRep, err := loadCoverFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "coverjson: %v\n", err)
			os.Exit(2)
		}
		newRep, err := loadCoverFile(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "coverjson: %v\n", err)
			os.Exit(2)
		}
		if compareReports(oldRep, newRep, *tolerance, os.Stdout) > 0 {
			os.Exit(1)
		}
	case *extract:
		in := io.Reader(os.Stdin)
		if flag.NArg() == 1 {
			f, err := os.Open(flag.Arg(0))
			if err != nil {
				fmt.Fprintf(os.Stderr, "coverjson: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			in = f
		} else if flag.NArg() > 1 {
			fmt.Fprintln(os.Stderr, "coverjson: -extract takes at most one input file (default stdin)")
			os.Exit(2)
		}
		rep, err := parseCover(in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coverjson: %v\n", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "coverjson: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "coverjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "coverjson: wrote %s (%d packages, %d untested)\n", *out, len(rep.Packages), len(rep.Untested))
	default:
		fmt.Fprintln(os.Stderr, "coverjson: need -extract or -compare (see package comment)")
		os.Exit(2)
	}
}
