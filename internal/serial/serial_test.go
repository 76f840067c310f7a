package serial

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/iofmt"
	"repro/internal/mapreduce"
	"repro/internal/vfs"
)

func wordCountJob(in, out string) *mapreduce.Job {
	return &mapreduce.Job{
		Name: "wordcount",
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, off int64, line string, emit mapreduce.Emitter) error {
				for _, w := range strings.Fields(line) {
					if err := emit.Emit(w, mapreduce.Int64(1)); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key string, values *mapreduce.Values, emit mapreduce.Emitter) error {
				var sum int64
				if err := values.Each(func(v mapreduce.Value) error {
					sum += int64(v.(mapreduce.Int64))
					return nil
				}); err != nil {
					return err
				}
				return emit.Emit(key, mapreduce.Int64(sum))
			})
		},
		DecodeValue: mapreduce.DecodeInt64,
		InputPaths:  []string{in},
		OutputPath:  out,
	}
}

func outputCounts(t *testing.T, fs vfs.FileSystem, out string) map[string]int {
	t.Helper()
	text, err := ReadOutput(fs, out)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		var w string
		var n int
		if _, err := fmt.Sscanf(line, "%s\t%d", &w, &n); err != nil {
			t.Fatalf("bad output line %q: %v", line, err)
		}
		counts[w] = n
	}
	return counts
}

func TestWordCountEndToEnd(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/f1.txt", []byte("to be or not to be\n")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/in/f2.txt", []byte("to be is to do\n")); err != nil {
		t.Fatal(err)
	}
	r := &Runner{FS: fs}
	job := wordCountJob("/in", "/out")
	rep, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	counts := outputCounts(t, fs, "/out")
	want := map[string]int{"to": 4, "be": 3, "or": 1, "not": 1, "is": 1, "do": 1}
	for w, n := range want {
		if counts[w] != n {
			t.Fatalf("count[%s] = %d, want %d (all: %v)", w, counts[w], n, counts)
		}
	}
	if !vfs.Exists(fs, "/out/_SUCCESS") {
		t.Fatal("_SUCCESS marker missing")
	}
	if rep.Counters.Get(mapreduce.CtrMapInputRecords) != 2 {
		t.Fatalf("map input records = %d", rep.Counters.Get(mapreduce.CtrMapInputRecords))
	}
}

func TestOutputExistsRefused(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/f.txt", []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/out"); err != nil {
		t.Fatal(err)
	}
	r := &Runner{FS: fs}
	_, err := r.Run(wordCountJob("/in", "/out"))
	if !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("want ErrExist for existing output dir, got %v", err)
	}
}

func TestEmptyInputFails(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/empty.txt", nil); err != nil {
		t.Fatal(err)
	}
	r := &Runner{FS: fs}
	if _, err := r.Run(wordCountJob("/in", "/out")); err == nil {
		t.Fatal("job with no data succeeded")
	}
}

func TestMissingInputFails(t *testing.T) {
	fs := vfs.NewMemFS()
	r := &Runner{FS: fs}
	if _, err := r.Run(wordCountJob("/nope", "/out")); err == nil {
		t.Fatal("job with missing input succeeded")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// Determinism property: output bytes are identical for any mapper
	// parallelism, because partitions are merged in split order.
	mkfs := func() vfs.FileSystem {
		fs := vfs.NewMemFS()
		var b strings.Builder
		for i := 0; i < 500; i++ {
			fmt.Fprintf(&b, "word%d alpha beta gamma word%d\n", i%17, i%5)
		}
		if err := vfs.WriteFile(fs, "/in/data.txt", []byte(b.String())); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	var outputs []string
	for _, par := range []int{1, 4, 16} {
		fs := mkfs()
		job := wordCountJob("/in", "/out")
		job.SplitSize = 256 // force many splits
		job.NumReducers = 3
		r := &Runner{FS: fs, Parallelism: par}
		if _, err := r.Run(job); err != nil {
			t.Fatal(err)
		}
		text, err := ReadOutput(fs, "/out")
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, text)
	}
	if outputs[0] != outputs[1] || outputs[1] != outputs[2] {
		t.Fatal("output differs across parallelism levels")
	}
}

func TestParallelCountersMatchSerial(t *testing.T) {
	// The worker pool reuses one sort buffer per worker across splits;
	// whatever split lands on whichever worker, the job's counters (spills
	// and combines included) must equal the one-worker run's.
	var b strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "w%d alpha beta w%d alpha\n", i%23, i%3)
	}
	var reports []string
	for _, par := range []int{1, 3, 64} {
		fs := vfs.NewMemFS()
		if err := vfs.WriteFile(fs, "/in/data.txt", []byte(b.String())); err != nil {
			t.Fatal(err)
		}
		job := wordCountJob("/in", "/out")
		job.NewCombiner = job.NewReducer
		job.SpillRecords = 40
		job.SplitSize = 512
		job.NumReducers = 2
		rep, err := (&Runner{FS: fs, Parallelism: par}).Run(job)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ReadOutput(fs, "/out")
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep.String()+out)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("parallelism changed the run:\n%s\nvs\n%s", reports[i], reports[0])
		}
	}
}

func TestMultipleReducersPartitionDisjointly(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/f.txt", []byte("a b c d e f g h\n")); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob("/in", "/out")
	job.NumReducers = 4
	r := &Runner{FS: fs}
	rep, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReduceTasks != 4 {
		t.Fatalf("reduce tasks = %d", rep.ReduceTasks)
	}
	infos, err := fs.List("/out")
	if err != nil {
		t.Fatal(err)
	}
	parts := 0
	seen := map[string]bool{}
	for _, fi := range infos {
		if fi.Name() == "_SUCCESS" {
			continue
		}
		parts++
		data, _ := vfs.ReadFile(fs, fi.Path)
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line == "" {
				continue
			}
			key := strings.SplitN(line, "\t", 2)[0]
			if seen[key] {
				t.Fatalf("key %q appears in multiple partitions", key)
			}
			seen[key] = true
		}
	}
	if parts != 4 {
		t.Fatalf("part files = %d, want 4", parts)
	}
	if len(seen) != 8 {
		t.Fatalf("distinct keys = %d, want 8", len(seen))
	}
}

func TestCombinerCountersVisible(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/f.txt", []byte("x x x x y y\n")); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob("/in", "/out")
	job.NewCombiner = job.NewReducer
	r := &Runner{FS: fs}
	rep, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.Get(mapreduce.CtrCombineInputRecords) != 6 {
		t.Fatalf("combine in = %d", rep.Counters.Get(mapreduce.CtrCombineInputRecords))
	}
	if rep.Counters.Get(mapreduce.CtrCombineOutputRecords) != 2 {
		t.Fatalf("combine out = %d", rep.Counters.Get(mapreduce.CtrCombineOutputRecords))
	}
	counts := outputCounts(t, fs, "/out")
	if counts["x"] != 4 || counts["y"] != 2 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestRunOnOsFS(t *testing.T) {
	fs, err := vfs.NewOsFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/in/f.txt", []byte("disk disk mem\n")); err != nil {
		t.Fatal(err)
	}
	r := &Runner{FS: fs}
	if _, err := r.Run(wordCountJob("/in", "/out")); err != nil {
		t.Fatal(err)
	}
	counts := outputCounts(t, fs, "/out")
	if counts["disk"] != 2 || counts["mem"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestReportString(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/f.txt", []byte("a\n")); err != nil {
		t.Fatal(err)
	}
	r := &Runner{FS: fs}
	rep, err := r.Run(wordCountJob("/in", "/out"))
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if !strings.Contains(s, "wordcount") || !strings.Contains(s, "MAP_INPUT_RECORDS") {
		t.Fatalf("report missing fields:\n%s", s)
	}
}

// TestSplitsReadInputOnce runs WordCount over a 1 MB file as one split
// and as sixteen. Each split used to re-read the whole file, so the
// sixteen-split run allocated sixteen extra copies of its input; now it
// may allocate at most the one-split run's bytes plus a small per-split
// constant. Its output must equal the one-split run's, and the counters
// its reads feed must equal what reading every split on its own gives.
func TestSplitsReadInputOnce(t *testing.T) {
	const size, nSplits = 1 << 20, 16
	var b strings.Builder
	for i := 0; b.Len() < size; i++ {
		fmt.Fprintf(&b, "w%d alpha beta w%d gamma\n", i%101, i%7)
	}
	data := []byte(b.String())
	splitSize := (int64(len(data)) + nSplits - 1) / nSplits
	newFS := func() vfs.FileSystem {
		fs := vfs.NewMemFS()
		if err := vfs.WriteFile(fs, "/in/data.txt", data); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	run := func(splitSize int64) (allocated uint64, rep *Report, out string) {
		fs := newFS()
		job := wordCountJob("/in", "/out")
		job.SplitSize = splitSize
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := (&Runner{FS: fs}).Run(job)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		out, err = ReadOutput(fs, "/out")
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, rep, out
	}
	one, oneRep, oneOut := run(int64(len(data)))
	many, manyRep, manyOut := run(splitSize)
	t.Logf("allocated %.1f MB as 1 split, %.1f MB as %d", float64(one)/(1<<20), float64(many)/(1<<20), manyRep.MapTasks)
	if oneRep.MapTasks != 1 || manyRep.MapTasks != nSplits {
		t.Fatalf("map tasks = %d and %d, want 1 and %d", oneRep.MapTasks, manyRep.MapTasks, nSplits)
	}
	const perSplit = 64 << 10
	if many > one+nSplits*perSplit {
		t.Fatalf("%d splits allocated %d bytes, over the 1-split %d + %d x %d", nSplits, many, one, nSplits, perSplit)
	}
	if manyOut != oneOut {
		t.Fatal("16-split output differs from the 1-split output")
	}

	splits, err := mapreduce.ComputeSplits(newFS(), []string{"/in"}, splitSize)
	if err != nil {
		t.Fatal(err)
	}
	want := mapreduce.NewCounters()
	for _, s := range splits {
		recs, st, err := mapreduce.ReadSplit(iofmt.BytesRangeReader(data), s)
		if err != nil {
			t.Fatal(err)
		}
		want.Inc(mapreduce.CtrMapInputRecords, int64(len(recs)))
		want.Inc(mapreduce.CtrFileBytesRead, st.BytesRead)
		want.Inc(mapreduce.CtrInputDecodedBytes, st.BytesDecoded)
	}
	for _, name := range []string{mapreduce.CtrMapInputRecords, mapreduce.CtrFileBytesRead, mapreduce.CtrInputDecodedBytes} {
		if got := manyRep.Counters.Get(name); got != want.Get(name) {
			t.Errorf("%s = %d, want %d", name, got, want.Get(name))
		}
	}
}
