package mrcluster

import (
	"fmt"
	"slices"
)

// Test hooks into the JobTracker, compiled only into this package's tests.

// RunningListError reports how the running-job list differs from jobs
// filtered to running ones, in submission order; nil when they agree.
func (jt *JobTracker) RunningListError() error {
	var want []*jobRun
	for _, jr := range jt.jobs {
		if jr.state == jobRunning {
			want = append(want, jr)
		}
	}
	if slices.Equal(jt.running, want) {
		return nil
	}
	ids := func(jrs []*jobRun) []string {
		out := make([]string, len(jrs))
		for i, jr := range jrs {
			out[i] = jr.id
		}
		return out
	}
	return fmt.Errorf("running list %v, want %v", ids(jt.running), ids(want))
}

// SchedulePass runs one scheduling pass now.
func (jt *JobTracker) SchedulePass() { jt.schedule() }
