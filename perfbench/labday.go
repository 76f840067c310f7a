package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/mrcluster"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// student is one member of the class: their generated inputs, the truths
// the oracles check against, and their arrival on the shared cluster.
type student struct {
	dir   string
	files map[string][]byte // HDFS path → contents

	text    *datagen.TextTruth
	airline *datagen.AirlineTruth
	movies  *datagen.MovieTruth
}

// labJob is one assignment submission.
type labJob struct {
	st     *student
	spec   string // registry job name
	params jobs.Params
	at     sim.Time

	handle *mrcluster.JobHandle
	err    error
}

// The three assignments every student submits, labSpacing apart.
const labSpacing = 15 * time.Minute

var labAssignments = []string{"wordcount-combiner", "airline-avg-plain", "movie-genre-stats"}

// runLabDay replays a class on one shared 16-node cluster: students
// arrive on a seeded Poisson schedule (one per simulated minute on
// average, over a day as many minutes long as there are students), stage
// their small inputs and submit three assignments each.
// Arrivals are open loop in simulated time, replayed as fast as the host
// allows. After the day every job's output, history and trace are read
// back and checked.
func runLabDay(h *harness, sz sizes) error {
	seed := h.res.Seed
	c, err := core.New(core.Options{Nodes: 16, Seed: seed})
	if err != nil {
		return err
	}
	// A Poisson process conditioned on its count: n arrivals fall
	// independently and uniformly over n simulated minutes. Fixing the
	// day's length keeps the work per seed comparable; how arrivals
	// cluster still varies with the seed.
	rng := sim.NewRand(seed).Derive("arrivals")
	day := sim.Time(sz.labStudents) * sim.Time(time.Minute)
	arrivals := make([]sim.Time, sz.labStudents)
	for i := range arrivals {
		arrivals[i] = c.Engine.Now() + sim.Time(rng.Int63n(int64(day)))
	}
	slices.Sort(arrivals)
	local := vfs.NewMemFS()
	var labJobs []*labJob
	for i, at := range arrivals {
		st, err := newStudent(h, local, i, seed, sz)
		if err != nil {
			return err
		}
		for k, name := range labAssignments {
			lj := &labJob{st: st, spec: name, at: at + sim.Time(k)*labSpacing}
			out := st.dir + "/out/" + name
			switch name {
			case "wordcount-combiner":
				lj.params = jobs.Params{Input: st.dir + "/text", Output: out}
			case "airline-avg-plain":
				lj.params = jobs.Params{Input: st.dir + "/airline", Output: out}
			case "movie-genre-stats":
				lj.params = jobs.Params{Input: st.dir + "/ratings", Output: out, Side: st.dir + "/movies/movies.dat"}
			}
			labJobs = append(labJobs, lj)
		}
	}
	sort.SliceStable(labJobs, func(i, j int) bool { return labJobs[i].at < labJobs[j].at })
	if h.corrupt {
		labJobs[0].st.text.Counts = copyCounts(labJobs[0].st.text.Counts)
		labJobs[0].st.text.Counts["the"]++
	}

	// Each submission is due at a virtual instant: a marker event queues
	// it, and the load loop carries it out between steps at that instant.
	var due []*labJob
	for _, lj := range labJobs {
		c.Engine.Schedule(lj.at, func() { due = append(due, lj) })
	}

	fs := c.FS()
	h.beginMeasure(c.Engine)
	var running []*labJob
	finished := 0
	for finished < len(labJobs) {
		if !h.step() {
			return fmt.Errorf("simulation stalled with %d of %d jobs finished", finished, len(labJobs))
		}
		for _, lj := range due {
			if lj.spec == labAssignments[0] {
				lj.err = h.stage(fs, lj.st)
			}
			if lj.err == nil {
				lj.err = h.submit(c, lj)
			}
			if lj.err != nil {
				finished++
				continue
			}
			running = append(running, lj)
		}
		due = due[:0]
		kept := running[:0]
		for _, lj := range running {
			if !lj.handle.Done() {
				kept = append(kept, lj)
				continue
			}
			h.res.Ops++
			finished++
		}
		running = kept
	}
	for _, lj := range labJobs {
		h.check(fs, lj)
	}
	h.endMeasure()
	h.seal(c.Obs)
	return nil
}

// newStudent generates one student's inputs (set-up, charged to datagen).
func newStudent(h *harness, local vfs.FileSystem, i int, seed int64, sz sizes) (*student, error) {
	st := &student{dir: fmt.Sprintf("/user/s%03d", i), files: map[string][]byte{}}
	sseed := seed*1000 + int64(i)
	src := fmt.Sprintf("/s%03d", i)
	err := h.gen(func() error {
		var err error
		if st.text, _, err = datagen.Text(local, src+"/text.txt", datagen.TextOpts{Lines: sz.labTextLines, Seed: sseed}); err != nil {
			return err
		}
		if st.airline, _, err = datagen.Airline(local, src+"/airline.csv", datagen.AirlineOpts{Rows: sz.labAirRows, Seed: sseed}); err != nil {
			return err
		}
		st.movies, _, err = datagen.Movies(local, src+"/movies", datagen.MovieOpts{
			Movies: sz.labMovies, Users: sz.labMovies, Ratings: sz.labRatings, Seed: sseed,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	for from, to := range map[string]string{
		"/text.txt":           "/text/part-00000.txt",
		"/airline.csv":        "/airline/airline.csv",
		"/movies/movies.dat":  "/movies/movies.dat",
		"/movies/ratings.dat": "/ratings/ratings.dat",
	} {
		data, err := vfs.ReadFile(local, src+from)
		if err != nil {
			return nil, err
		}
		st.files[st.dir+to] = data
	}
	return st, nil
}

// stage uploads a student's inputs, in path order.
func (h *harness) stage(fs vfs.FileSystem, st *student) error {
	paths := make([]string, 0, len(st.files))
	for p := range st.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := h.put(fs, p, st.files[p]); err != nil {
			return fmt.Errorf("staging %s: %w", p, err)
		}
	}
	return nil
}

// submit builds a registry job and submits it.
func (h *harness) submit(c *core.MiniCluster, lj *labJob) error {
	spec, ok := jobs.Lookup(lj.spec)
	if !ok {
		return fmt.Errorf("no job %q", lj.spec)
	}
	job, err := spec.Build(lj.params)
	if err != nil {
		return err
	}
	h.p.wrapJob(job)
	t0 := h.p.start()
	lj.handle, err = c.MR.Submit(job)
	h.p.stop(t0, &h.p.submit)
	return err
}

// check reads one finished job's output, history and trace back and
// compares the output with the generator truth.
func (h *harness) check(fs vfs.FileSystem, lj *labJob) {
	if lj.err != nil {
		h.op(false, "%s of %s: %v", lj.spec, lj.st.dir, lj.err)
		return
	}
	if err := lj.handle.Err(); err != nil {
		h.op(false, "%s of %s failed: %v", lj.spec, lj.st.dir, err)
		return
	}
	report := lj.handle.Report()
	h.mr.add(report)
	output, err := h.readOutput(fs, lj.params.Output)
	if err != nil {
		h.op(false, "reading %s: %v", lj.params.Output, err)
		return
	}
	h.fingerprint("output "+report.JobID, output)
	if err := h.analyseJob(fs, report.JobID); err != nil {
		h.op(false, "%v", err)
		return
	}
	var ok bool
	switch lj.spec {
	case "wordcount-combiner":
		ok = checkCounts(output, lj.st.text.Counts)
	case "airline-avg-plain":
		ok = checkAirline(output, lj.st.airline)
	case "movie-genre-stats":
		ok = checkGenres(output, lj.st.movies)
	}
	h.op(ok, "%s (%s): output differs from the generator truth", report.JobID, lj.st.dir)
}

// checkAirline compares "carrier<TAB>average delay" lines with the truth.
func checkAirline(output []byte, t *datagen.AirlineTruth) bool {
	lines := strings.Split(strings.TrimSuffix(string(output), "\n"), "\n")
	if len(lines) != len(t.Counts) {
		return false
	}
	for _, line := range lines {
		code, avg, ok := strings.Cut(line, "\t")
		v, err := strconv.ParseFloat(avg, 64)
		if !ok || err != nil || t.Counts[code] == 0 || !near(v, t.Avg(code), 1e-9) {
			return false
		}
	}
	return true
}

// checkGenres compares "genre<TAB>count=N avg=A min=.. max=.." lines with
// the truth; the average is rendered to four decimals.
func checkGenres(output []byte, t *datagen.MovieTruth) bool {
	lines := strings.Split(strings.TrimSuffix(string(output), "\n"), "\n")
	want := 0
	for _, n := range t.GenreCount {
		if n > 0 {
			want++
		}
	}
	if len(lines) != want {
		return false
	}
	for _, line := range lines {
		genre, stats, ok := strings.Cut(line, "\t")
		var count int64
		var avg float64
		if !ok {
			return false
		}
		if _, err := fmt.Sscanf(stats, "count=%d avg=%g", &count, &avg); err != nil {
			return false
		}
		if count != t.GenreCount[genre] || math.Abs(avg-t.GenreAvg(genre)) > 5e-5 {
			return false
		}
	}
	return true
}

// near reports whether a and b agree to a relative tolerance.
func near(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))
}
