package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/serial"
	"repro/internal/vfs"
)

// runWordcount is the course's first lab on the paper's 8-node cluster:
// stage a Zipf corpus into HDFS, run WordCount with its combiner, read
// the output back and audit the job's history and trace.
func runWordcount(h *harness, sz sizes) error {
	seed := h.res.Seed
	c, err := core.New(core.Options{Nodes: 8, Seed: seed})
	if err != nil {
		return err
	}
	local := vfs.NewMemFS()
	var truth *datagen.TextTruth
	if err := h.gen(func() error {
		truth, _, err = datagen.Text(local, "/corpus.txt", datagen.TextOpts{Lines: sz.wcLines, Seed: seed})
		return err
	}); err != nil {
		return err
	}
	corpus, err := vfs.ReadFile(local, "/corpus.txt")
	if err != nil {
		return err
	}
	want := truth.Counts
	if h.corrupt {
		want = copyCounts(want)
		want[truth.TopWord]++
	}

	const in, out = "/user/student/wordcount/in", "/user/student/wordcount/out"
	fs := c.FS()
	h.beginMeasure(c.Engine)
	if err := h.put(fs, in+"/corpus.txt", corpus); err != nil {
		return fmt.Errorf("staging corpus: %w", err)
	}
	job := jobs.WordCount(in, out, true)
	h.p.wrapJob(job)
	ts := h.p.start()
	handle, err := c.MR.Submit(job)
	h.p.stop(ts, &h.p.submit)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	for !handle.Done() {
		if !h.step() {
			return fmt.Errorf("simulation stalled with %s incomplete", job.Name)
		}
	}
	h.res.Ops++
	report := handle.Report()
	h.mr.add(report)
	output, readErr := h.readOutput(fs, out)
	auditErr := h.analyseJob(fs, report.JobID)
	h.endMeasure()

	switch {
	case handle.Err() != nil:
		h.op(false, "%s failed: %v", report.JobID, handle.Err())
	case readErr != nil:
		h.op(false, "reading %s: %v", out, readErr)
	case auditErr != nil:
		h.op(false, "%v", auditErr)
	default:
		h.op(checkCounts(output, want), "%s: word counts differ from the generator truth", report.JobID)
	}
	h.fingerprint("output", output)
	h.seal(c.Obs)

	if h.p.on {
		// The data plane with no simulator and no HDFS: the standalone
		// runner over the same corpus in memory. The cluster is dropped
		// first so its heap does not slow this run's collections.
		c, h.eng = nil, nil
		runtime.GC()
		t0 := time.Now()
		_, err := (&serial.Runner{FS: local}).Run(jobs.WordCount("/corpus.txt", "/serial", true))
		elapsed := time.Since(t0)
		h.layer("serial.mb_per_s", float64(len(corpus))/mb/elapsed.Seconds())
		var got string
		if err == nil {
			got, err = serial.ReadOutput(local, "/serial")
		}
		h.op(err == nil && checkCounts([]byte(got), want), "serial wordcount differs from the generator truth (err %v)", err)
	}
	return nil
}

// checkCounts reports whether "word<TAB>count" output lines match want
// exactly: every word, every count, nothing extra.
func checkCounts(output []byte, want map[string]int64) bool {
	seen := 0
	for _, line := range bytes.Split(bytes.TrimSuffix(output, []byte("\n")), []byte("\n")) {
		word, count, ok := bytes.Cut(line, []byte("\t"))
		if !ok {
			return false
		}
		n, err := strconv.ParseInt(string(count), 10, 64)
		if err != nil || want[string(word)] != n {
			return false
		}
		seen++
	}
	return seen == len(want)
}

func copyCounts(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
