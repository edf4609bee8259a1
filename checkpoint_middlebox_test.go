package apclassifier_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"apclassifier"
	"apclassifier/internal/checkpoint"
	"apclassifier/internal/server"
)

// TestCheckpointRefusesMiddlebox holds every checkpoint writer to the
// format's limit: it has no section for middleboxes, so an epoch hosting
// one must be refused, not saved without it (the NAT'ed packet that is
// delivered live would drop after the restore). Encode names the box; the
// file writer apstate saves with and a managed directory leave no file
// behind; POST /checkpoint answers 422, and the background runner reports
// the refusal and keeps going.
func TestCheckpointRefusesMiddlebox(t *testing.T) {
	c := apclassifier.NATClassifier(t)
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, checkpoint.ErrMiddlebox) || !strings.Contains(err.Error(), `"chicago"`) {
			t.Errorf("%s: error %v, want ErrMiddlebox naming chicago", what, err)
		}
	}
	noFiles := func(what, dir string) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Name() != "MANIFEST" {
				t.Errorf("%s left %s behind", what, e.Name())
			}
		}
	}

	refused("Encode", checkpoint.Encode(io.Discard, c.CheckpointSource()))

	fileDir := t.TempDir()
	refused("WriteFile", checkpoint.WriteFile(filepath.Join(fileDir, "nat.apc"), c.CheckpointSource()))
	noFiles("WriteFile", fileDir)

	saveDir := t.TempDir()
	dir, err := checkpoint.Open(saveDir, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = dir.Save(c.CheckpointSource())
	refused("Dir.Save", err)
	noFiles("Dir.Save", saveDir)

	s := server.New(c)
	runnerErrs := make(chan error, 8)
	runner := s.EnableCheckpoints(dir, checkpoint.RunnerConfig{
		MinGap:  time.Millisecond,
		OnError: func(err error) { runnerErrs <- err },
	})
	defer runner.Stop()
	select {
	case err := <-runnerErrs:
		refused("runner", err)
	case <-time.After(5 * time.Second):
		t.Fatal("the runner's initial save reported nothing")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body) // a short read still shows in the checks below
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "chicago") {
		t.Errorf("POST /checkpoint: %d %s, want 422 naming chicago", resp.StatusCode, body)
	}
	noFiles("POST /checkpoint", saveDir)
	if len(dir.Checkpoints()) != 0 {
		t.Errorf("directory lists %v after refused saves", dir.Checkpoints())
	}
}
