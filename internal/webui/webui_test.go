package webui_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/regionserver"
	"repro/internal/webui"
	"repro/internal/yarn"
)

func setup(t *testing.T) *httptest.Server {
	t.Helper()
	c, err := core.New(core.Options{Nodes: 4, Seed: 6, HDFS: hdfs.Config{BlockSize: 64 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 500, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(jobs.WordCount("/in", "/out", true)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(webui.Handler(c))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, srv *httptest.Server, path string) (code int, contentType, body string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
}

const (
	textPlain = "text/plain; charset=utf-8"
	appJSON   = "application/json; charset=utf-8"
)

func TestEndpoints(t *testing.T) {
	srv := setup(t)
	cases := []struct {
		path        string
		status      int
		contentType string
		wants       []string
	}{
		{"/", http.StatusOK, textPlain, []string{"/dfshealth", "/jobtracker", "/history"}},
		{"/dfshealth", http.StatusOK, textPlain, []string{"Live nodes: 4", "Blocks:"}},
		{"/jobtracker", http.StatusOK, textPlain, []string{"SUCCEEDED", "TaskTrackers: 4/4 alive"}},
		{"/fsck", http.StatusOK, textPlain, []string{"is HEALTHY"}},
		{"/topology", http.StatusOK, textPlain, []string{"[NameNode]", "blk_"}},
		{"/counters", http.StatusOK, textPlain, []string{"MAP_INPUT_RECORDS", "SHUFFLE_BYTES"}},
		{"/metrics", http.StatusOK, appJSON, []string{
			`"hdfs.nn.blocks_allocated"`, `"mr.jt.jobs_succeeded"`, `"mr.job"`,
			`"history.audit_events"`, `"history.job_events"`, `"history.files_persisted"`,
		}},
		{"/history", http.StatusOK, textPlain, []string{"job_wordcount_combiner_0001"}},
		{"/history/", http.StatusOK, textPlain, []string{"job_wordcount_combiner_0001"}},
		{"/history/job_wordcount_combiner_0001", http.StatusOK, textPlain, []string{
			"Job job_wordcount_combiner_0001 (wordcount-combiner) SUCCEEDED",
			"Critical path",
			"Slowest",
			"Per-node successful attempts",
			"Timeline (rebuilt from the history file)",
		}},
		{"/scheduler", http.StatusOK, textPlain, []string{"YARN is not enabled"}},
		{"/serving", http.StatusOK, textPlain, []string{"serving tier is not enabled"}},
		{"/history/job_missing_9999", http.StatusNotFound, "", nil},
		{"/timeline", http.StatusNotFound, "", nil}, // /history/<jobid> draws the attempt gantt
		{"/nope", http.StatusNotFound, "", nil},
	}
	for _, tc := range cases {
		code, ct, body := get(t, srv, tc.path)
		if code != tc.status {
			t.Fatalf("%s -> %d, want %d", tc.path, code, tc.status)
		}
		if tc.contentType != "" && ct != tc.contentType {
			t.Fatalf("%s content-type = %q, want %q", tc.path, ct, tc.contentType)
		}
		for _, want := range tc.wants {
			if !strings.Contains(body, want) {
				t.Fatalf("%s missing %q:\n%s", tc.path, want, body)
			}
		}
	}
}

// TestSchedulerPage runs a job on a YARN-backed cluster and checks the
// ResourceManager status page renders the queue table and RM counters.
func TestSchedulerPage(t *testing.T) {
	c, err := core.New(core.Options{
		Nodes: 4, Seed: 6,
		HDFS: hdfs.Config{BlockSize: 64 << 10},
		YARN: &yarn.CapacityOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 500, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(jobs.WordCount("/in", "/out", true)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(webui.Handler(c))
	defer srv.Close()
	code, ct, body := get(t, srv, "/scheduler")
	if code != http.StatusOK || ct != textPlain {
		t.Fatalf("/scheduler -> %d %q", code, ct)
	}
	for _, want := range []string{"Resource Manager", "Node pool: 4/4 nodes active", "root.default", "Containers launched:"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/scheduler missing %q:\n%s", want, body)
		}
	}
}

// TestServingPage enables the region-server tier, serves a little
// traffic, and checks the /serving status page renders the server table,
// region layout and cache counters.
func TestServingPage(t *testing.T) {
	c, err := core.New(core.Options{
		Nodes: 6, Seed: 6,
		Serving: &regionserver.Options{Servers: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Serving.Stop()
	if err := c.Serving.Master.CreateTable("usertable", []string{"g", "n"}); err != nil {
		t.Fatal(err)
	}
	cl := c.Serving.NewCachedClient(4, 64)
	now := c.Engine.Now()
	for _, k := range []string{"alpha", "golf", "zulu"} {
		if _, err := cl.Put(now, "usertable", k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // misses then hits
		if _, _, err := cl.Get(now, "usertable", "alpha"); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(webui.Handler(c))
	defer srv.Close()
	code, ct, body := get(t, srv, "/serving")
	if code != http.StatusOK || ct != textPlain {
		t.Fatalf("/serving -> %d %q", code, ct)
	}
	for _, want := range []string{"rs1", "Table usertable (3 regions)", "META check: ok", "Hottest regions"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/serving missing %q:\n%s", want, body)
		}
	}
}

func TestPagesBeforeAnyJob(t *testing.T) {
	c, err := core.New(core.Options{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(webui.Handler(c))
	defer srv.Close()
	for path, want := range map[string]string{
		"/counters": "no completed jobs",
		"/history":  "no job history yet",
	} {
		code, _, body := get(t, srv, path)
		if code != http.StatusOK {
			t.Fatalf("%s -> %d", path, code)
		}
		if !strings.Contains(body, want) {
			t.Fatalf("%s: %s", path, body)
		}
	}
}
