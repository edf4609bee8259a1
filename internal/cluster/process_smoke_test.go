package cluster_test

// Process-level smoke: the real apserver and aprouter binaries, not
// in-process handlers. Two sharded workers behind a router must answer
// bit-identically to an unsharded oracle process through churn and a
// SIGTERM restart of one worker — the `make cluster-smoke` target CI
// runs on every push. Everything the binaries need is regenerated from
// flags; nothing is copied into the fleet.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"apclassifier/internal/netgen"
)

func TestClusterProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	bin := buildBinaries(t)
	ports := reservePorts(t, 4)
	dsFlags := []string{"-net", "internet2", "-scale", "0.01", "-seed", "71"}

	oracleURL := fmt.Sprintf("http://127.0.0.1:%d", ports[0])
	w0URL := fmt.Sprintf("http://127.0.0.1:%d", ports[1])
	w1URL := fmt.Sprintf("http://127.0.0.1:%d", ports[2])
	routerURL := fmt.Sprintf("http://127.0.0.1:%d", ports[3])
	ckptDir := t.TempDir()

	startServer := func(port int, extra ...string) *exec.Cmd {
		args := append([]string{"-listen", fmt.Sprintf("127.0.0.1:%d", port)}, dsFlags...)
		return startProc(t, bin.apserver, append(args, extra...)...)
	}
	oracle := startServer(ports[0])
	w0 := startServer(ports[1], "-shard", "0/2", "-checkpoint-dir", ckptDir)
	w1 := startServer(ports[2], "-shard", "1/2")
	router := startProc(t, bin.aprouter,
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[3]),
		"-shards", w0URL+","+w1URL)
	// Graceful stops assert a clean exit. startProc's cleanup kills what
	// this misses: w0, which an early Fatalf leaves running.
	defer func() {
		for _, p := range []*exec.Cmd{router, w1, oracle} {
			sigterm(t, p)
		}
	}()

	for _, u := range []string{oracleURL, w0URL, w1URL, routerURL} {
		waitHealthz(t, u)
	}

	ds := netgen.Internet2Like(netgen.Config{Seed: 71, RuleScale: 0.01})
	rng := rand.New(rand.NewSource(9))
	assertSameAnswers(t, "smoke baseline", oracleURL, routerURL, buildQueries(ds, rng, 48))

	// One churn batch to the oracle and through the router's fan-out.
	batch, _ := json.Marshal(churnBatch(ds, 0))
	if code, resp := postRaw(t, oracleURL+"/rules/batch?seq=1", batch); code != 200 {
		t.Fatalf("oracle churn: %d %s", code, resp)
	}
	if code, resp := postRaw(t, routerURL+"/rules/batch?seq=1", batch); code != 200 {
		t.Fatalf("router churn: %d %s", code, resp)
	}
	assertSameAnswers(t, "smoke post-churn", oracleURL, routerURL, buildQueries(ds, rng, 48))

	// SIGTERM worker 0: it must drain, write a final checkpoint, and
	// exit cleanly; the relaunch warm-restores from that checkpoint.
	sigterm(t, w0)
	entries, err := filepath.Glob(filepath.Join(ckptDir, "ckpt-*.apc"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no checkpoint after SIGTERM (err %v)", err)
	}
	w0 = startServer(ports[1], "-shard", "0/2", "-checkpoint-dir", ckptDir, "-restore")
	defer sigterm(t, w0)
	waitHealthz(t, w0URL)

	assertSameAnswers(t, "smoke post-restart", oracleURL, routerURL, buildQueries(ds, rng, 48))
}

type smokeBinaries struct {
	apserver, aprouter string
}

func buildBinaries(t *testing.T) smokeBinaries {
	t.Helper()
	dir := t.TempDir()
	b := smokeBinaries{
		apserver: filepath.Join(dir, "apserver"),
		aprouter: filepath.Join(dir, "aprouter"),
	}
	for pkg, out := range map[string]string{
		"apclassifier/cmd/apserver": b.apserver,
		"apclassifier/cmd/aprouter": b.aprouter,
	} {
		cmd := exec.Command("go", "build", "-o", out, pkg)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v: %s", pkg, err, msg)
		}
	}
	return b
}

func reservePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	var lns []net.Listener
	for len(ports) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	for _, ln := range lns {
		ln.Close()
	}
	return ports
}

// startProc starts a child that cannot outlive the test: whatever is
// still running when the test ends — passed, failed mid-way or skipped
// past its sigterm — is killed and reaped by the cleanup, and childAttr
// has the kernel kill it if the test binary itself dies first (timeout,
// SIGKILL), when no cleanup runs.
func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill() // already failing or done: no graceful exit to assert
			_ = cmd.Wait()
		}
	})
	return cmd
}

// sigterm asks the process to shut down gracefully and requires a clean
// exit — a worker that dies non-zero under SIGTERM fails the smoke.
// Safe on processes already stopped by an earlier call.
func sigterm(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if cmd.ProcessState != nil {
		return
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s exited: %v", filepath.Base(cmd.Path), err)
		}
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		<-done // reaped: the cleanup must not race this Wait
		t.Errorf("%s ignored SIGTERM", filepath.Base(cmd.Path))
	}
}

func waitHealthz(t *testing.T, base string) {
	t.Helper()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", base)
}
