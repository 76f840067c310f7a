// Command mrhistory reads persisted job-history files (the JSONL event
// logs the JobTracker writes under /history/<jobid>/ in HDFS) and
// reprints a job's lifecycle the way `hadoop job -history` did —
// without needing the cluster that ran it.
//
// Export the files first (hadoop fs -get /history/<jobid>), or point
// -dir at a directory tree laid out like /history.
//
// Usage:
//
//	mrhistory -file events.jsonl            job summary + attempt table
//	mrhistory -file events.jsonl -analyze   critical path, slowest attempts,
//	                                        shuffle + per-node attribution
//	mrhistory -dir ./hist -list             list job ids under ./hist
//	mrhistory -dir ./hist -job job_x_0001 -analyze
//
// When the job's causal trace (trace.jsonl) sits beside its events file,
// -analyze goes on to print that trace's waterfall, cross-layer critical
// path and blame table — the view the web UI serves at /trace/<id>.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/history"
	"repro/internal/trace"
)

func main() {
	file := flag.String("file", "", "history events.jsonl file to read")
	dir := flag.String("dir", ".", "history directory tree (<jobid>/events.jsonl)")
	jobID := flag.String("job", "", "job id to read from -dir")
	list := flag.Bool("list", false, "list job ids under -dir")
	analyze := flag.Bool("analyze", false, "print critical-path analysis instead of the summary, then the trace waterfall when trace.jsonl sits beside the events file")
	flag.Parse()

	if *list {
		entries, err := os.ReadDir(*dir)
		if err != nil {
			fatal(err)
		}
		var ids []string
		for _, e := range entries {
			if _, statErr := os.Stat(filepath.Join(*dir, e.Name(), "events.jsonl")); statErr == nil {
				ids = append(ids, e.Name())
			}
		}
		sort.Strings(ids)
		if len(ids) == 0 {
			fmt.Println("no job histories found")
			return
		}
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}

	path := *file
	if path == "" {
		if *jobID == "" {
			flag.Usage()
			os.Exit(2)
		}
		path = filepath.Join(*dir, *jobID, "events.jsonl")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	events, err := history.Parse(data)
	if err != nil {
		fatal(err)
	}
	rep, err := history.BuildJobReport(events)
	if err != nil {
		fatal(err)
	}
	if !*analyze {
		fmt.Print(rep.SummaryString())
		return
	}
	waterfall, err := traceWaterfall(filepath.Join(filepath.Dir(path), "trace.jsonl"))
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.AnalysisString())
	if waterfall != "" {
		fmt.Print("\n" + waterfall)
	}
}

// traceWaterfall renders the job's trace export at path, or returns ""
// when the job has none. A job's export holds exactly one trace: the
// JobTracker persists the spans of the job's own trace.
func traceWaterfall(path string) (string, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	spans, err := trace.Parse(data)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	out, err := trace.Waterfall(spans)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrhistory:", err)
	os.Exit(1)
}
