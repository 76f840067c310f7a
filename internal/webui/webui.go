// Package webui serves the cluster's status pages over HTTP — the
// NameNode and JobTracker "web interfaces" the paper's students tunneled
// SSH connections to reach in Fall 2012. Pages are plain text renders of
// live cluster state:
//
//	/            index
//	/dfshealth   NameNode status (live/dead nodes, blocks, safe mode)
//	/jobtracker  JobTracker status (slots, jobs, per-tracker state)
//	/fsck        filesystem audit
//	/topology    the Figure-2 component diagram
//	/scheduler   YARN ResourceManager status (queues, apps, node pool)
//	/serving     region-server tier status (regions, heat, cache, recovery)
//	/counters    counters of the most recently completed job
//	/metrics     the full obs snapshot as JSON (counters, gauges, spans)
//	/history     persisted job histories (the history server)
//	/traces      recorded traces, slowest first
//	/trace/<id>  one trace's waterfall, critical path and blame
package webui

import (
	"fmt"
	"net/http"
	"path"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Handler returns an http.Handler exposing the cluster's status pages.
//
// Concurrency note: the simulation is single-threaded; serve from the
// same goroutine that drives the engine (or a quiesced cluster, as the
// teaching flows do — run the job, then browse the aftermath).
func Handler(c *core.MiniCluster) http.Handler {
	mux := http.NewServeMux()
	text := func(fn func() (string, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			body, err := fn()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, body)
		}
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, `minihadoop cluster
  /dfshealth   NameNode status
  /jobtracker  JobTracker status
  /fsck        filesystem audit
  /topology    component diagram (Figure 2)
  /scheduler   YARN ResourceManager status (queues, apps, node pool)
  /serving     region-server tier status (regions, heat, cache, recovery)
  /counters    last completed job's counters
  /metrics     cluster metrics + spans (JSON snapshot)
  /history     persisted job histories (history server)
  /traces      recorded traces, slowest first
  /trace/<id>  one trace's waterfall, critical path and blame
`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := c.Obs.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/dfshealth", text(func() (string, error) { return c.DFS.StatusPage(), nil }))
	mux.Handle("/jobtracker", text(func() (string, error) { return c.MR.StatusPage(), nil }))
	mux.Handle("/topology", text(func() (string, error) { return c.RenderTopology(), nil }))
	mux.Handle("/scheduler", text(func() (string, error) {
		if c.RM == nil {
			return "YARN is not enabled on this cluster (set Options.YARN)\n", nil
		}
		return c.RM.StatusPage(), nil
	}))
	mux.Handle("/serving", text(func() (string, error) {
		if c.Serving == nil {
			return "the serving tier is not enabled on this cluster (set Options.Serving)\n", nil
		}
		return c.Serving.StatusPage(), nil
	}))
	mux.Handle("/fsck", text(func() (string, error) {
		rep, err := c.Fsck()
		if err != nil {
			return "", err
		}
		return rep.String(), nil
	}))
	mux.Handle("/counters", text(func() (string, error) {
		ctrs := c.MR.JT.CompletedJobCounters()
		if ctrs == nil {
			return "no completed jobs yet\n", nil
		}
		return ctrs.String(), nil
	}))
	mux.Handle("/traces", text(func() (string, error) { return TracesPage(c.Obs), nil }))
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/trace/")
		if id == "" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, TracesPage(c.Obs))
			return
		}
		body, err := TraceWaterfallPage(c.Obs, id)
		if err != nil {
			// No trace with that id — mirror the history server's 404.
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, body)
	})
	mux.Handle("/history", text(func() (string, error) { return HistoryIndexPage(c.FS()), nil }))
	mux.HandleFunc("/history/", func(w http.ResponseWriter, r *http.Request) {
		jobID := strings.TrimPrefix(r.URL.Path, "/history/")
		if jobID == "" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, HistoryIndexPage(c.FS()))
			return
		}
		body, err := HistoryJobPage(c.FS(), jobID)
		if err != nil {
			// No history file for that id — the history-server 404.
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, body)
	})
	return mux
}

// HistoryIndexPage lists the job histories persisted under /history in
// HDFS — the history server's front page.
func HistoryIndexPage(fs vfs.FileSystem) string {
	infos, err := fs.List(history.Root)
	if err != nil || len(infos) == 0 {
		return "no job history yet\n"
	}
	var b strings.Builder
	b.WriteString("job history (open /history/<jobid>):\n")
	for _, fi := range infos {
		if fi.IsDir {
			fmt.Fprintf(&b, "  %s\n", path.Base(fi.Path))
		}
	}
	return b.String()
}

// HistoryJobPage renders one persisted job history: the critical-path
// analysis followed by a per-attempt gantt on the job's own time axis,
// drawn with the trace waterfall's bars but rebuilt from the durable
// file rather than live spans.
func HistoryJobPage(fs vfs.FileSystem, jobID string) (string, error) {
	data, err := vfs.ReadFile(fs, history.EventsPath(jobID))
	if err != nil {
		return "", err
	}
	evs, err := history.Parse(data)
	if err != nil {
		return "", err
	}
	rep, err := history.BuildJobReport(evs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(rep.AnalysisString())
	b.WriteString("\nTimeline (rebuilt from the history file):\n")
	span := rep.Makespan()
	if span <= 0 {
		span = 1
	}
	for _, a := range rep.Attempts {
		end := a.End
		if end < a.Start {
			end = a.Start
		}
		kind := a.Kind
		if kind == "map" {
			kind = "map   "
		}
		tags := a.Outcome
		if a.Speculative {
			tags += ",speculative"
		}
		if a.Locality >= 0 {
			tags += fmt.Sprintf(",locality=%d", a.Locality)
		}
		fmt.Fprintf(&b, "%s |%s| %-34s %-8s %v %s\n",
			kind, trace.GanttBar(a.Start, end, rep.Submitted, span), a.ID, a.Node,
			a.Duration().Round(time.Millisecond), tags)
	}
	return b.String(), nil
}
