package nemesis

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// The CI workflow holds no check of its own: each job checks out, sets up
// Go, runs one `make ci-<job>` and uploads artifacts, and `make ci` runs
// every job's target, so the gate CI runs is the gate that runs offline.
// The standard library has no YAML parser, so these tests read the workflow
// line by line and pin a form with nothing in it that can break the parse,
// as a plain `run:` scalar holding ": " once did.

const (
	workflowPath = ".github/workflows/ci.yml"
	makefilePath = "Makefile"
)

func TestCIJobsEachRunTheirMakeTarget(t *testing.T) {
	workflow, makefile := readCIFiles(t)
	for _, p := range ciProblems(workflow, makefile) {
		t.Error(p)
	}
}

// Each edit that would let the workflow and the Makefile drift apart, or
// bring back a form that can break the parse, must be reported.
func TestCIProblemsCatchBreaks(t *testing.T) {
	workflow, makefile := readCIFiles(t)
	cases := []struct {
		name       string
		inMakefile bool
		old, new   string
	}{
		{"second run line", false,
			"      - run: make ci-lint\n",
			"      - run: make ci-lint\n      - run: go vet ./...\n"},
		{"job's target missing", true,
			"\nci-timeline:\n", "\ntimeline-checks:\n"},
		{"ci-* target that ci does not run", true,
			"\nci-race: race\n", "\nci-extra:\n\techo extra\n\nci-race: race\n"},
		{"env key", false,
			"      - run: make ci-race\n",
			"      - run: make ci-race\n        env:\n          NEMESIS_SWEEP_WORKERS: \"8\"\n"},
		{"working-directory key", false,
			"      - run: make ci-hostbench\n",
			"      - run: make ci-hostbench\n        working-directory: hostbench\n"},
		{"block-scalar run", false,
			"      - run: make ci-lint\n",
			"      - run: |\n          make ci-lint\n"},
	}
	for _, c := range cases {
		w, m := workflow, makefile
		target := &w
		if c.inMakefile {
			target = &m
		}
		if !strings.Contains(*target, c.old) {
			t.Fatalf("%s: %q not found; update the case", c.name, c.old)
		}
		*target = strings.Replace(*target, c.old, c.new, 1)
		if len(ciProblems(w, m)) == 0 {
			t.Errorf("%s: not reported", c.name)
		}
	}
}

func readCIFiles(t *testing.T) (workflow, makefile string) {
	t.Helper()
	w, err := os.ReadFile(workflowPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := os.ReadFile(makefilePath)
	if err != nil {
		t.Fatal(err)
	}
	return string(w), string(m)
}

// ciProblems lists every way the workflow departs from one `run: make
// ci-<job>` per job, each naming a Makefile target that `ci` runs in the
// jobs' order, and every `ci-*` target that `ci` leaves out.
func ciProblems(workflow, makefile string) []string {
	var problems []string
	var jobs []string
	runs := map[string][]string{}
	inJobs := false
	for i, line := range strings.Split(workflow, "\n") {
		where := fmt.Sprintf("%s:%d", workflowPath, i+1)
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		key, value, _ := strings.Cut(strings.TrimPrefix(trimmed, "- "), ":")
		value = strings.TrimSpace(value)
		switch {
		case indent == 0:
			inJobs = key == "jobs"
		case inJobs && indent == 2:
			jobs = append(jobs, key)
		}
		switch key {
		case "env", "working-directory":
			problems = append(problems, fmt.Sprintf("%s: %s: set it in the job's make target instead", where, key))
		case "run":
			switch {
			case value == "" || value[0] == '|' || value[0] == '>':
				problems = append(problems, fmt.Sprintf("%s: multi-line run: move its commands into a make target", where))
			case len(jobs) == 0:
				problems = append(problems, fmt.Sprintf("%s: run outside a job", where))
			default:
				job := jobs[len(jobs)-1]
				runs[job] = append(runs[job], value)
			}
		}
	}

	targets, ciRuns := makeTargets(makefile)
	var want []string
	for _, job := range jobs {
		target := "ci-" + job
		want = append(want, target)
		if got := runs[job]; !slices.Equal(got, []string{"make " + target}) {
			problems = append(problems, fmt.Sprintf("job %s runs %q, want only %q", job, got, "make "+target))
		}
		if !targets[target] {
			problems = append(problems, fmt.Sprintf("job %s: %s defines no target %s", job, makefilePath, target))
		}
	}
	if len(jobs) == 0 {
		problems = append(problems, workflowPath+": no jobs")
	}
	if !slices.Equal(ciRuns, want) {
		problems = append(problems, fmt.Sprintf("%s: ci runs %q, want the jobs' targets in order %q", makefilePath, ciRuns, want))
	}
	for target := range targets {
		if strings.HasPrefix(target, "ci-") && !slices.Contains(ciRuns, target) {
			problems = append(problems, fmt.Sprintf("%s: ci does not run %s", makefilePath, target))
		}
	}
	return problems
}

// makeTargets returns the targets a Makefile defines and the prerequisites
// of its ci target.
func makeTargets(makefile string) (targets map[string]bool, ciRuns []string) {
	targets = map[string]bool{}
	for _, line := range strings.Split(strings.ReplaceAll(makefile, "\\\n", " "), "\n") {
		if line == "" || line[0] == '\t' || line[0] == '#' {
			continue
		}
		name, prereqs, ok := strings.Cut(line, ":")
		if !ok || strings.HasPrefix(prereqs, "=") || strings.ContainsAny(name, " \t=$") {
			continue
		}
		targets[name] = true
		if name == "ci" {
			ciRuns = strings.Fields(prereqs)
		}
	}
	return targets, ciRuns
}
