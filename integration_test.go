package dimm

// End-to-end integration tests that build and exec the real binaries:
// gengraph produces a dataset, dimmd workers serve it over TCP as separate
// processes, and dimm runs the master against them — the full multi-process
// deployment path a user would run across hosts.

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildOnce compiles all binaries into a shared temp dir once per test run.
var buildOnce = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "dimm-bin")
	if err != nil {
		return "", err
	}
	for _, tool := range []string{"dimm", "dimmd", "gengraph", "influapp", "experiments"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("building %s: %v\n%s", tool, err, out)
		}
	}
	return dir, nil
})

func repoRoot() string {
	wd, _ := os.Getwd()
	return wd
}

func binaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("integration tests build binaries; skipped with -short")
	}
	dir, err := buildOnce()
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// freePorts reserves n distinct loopback ports.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = lis
		ports[i] = lis.Addr().(*net.TCPAddr).Port
	}
	for _, lis := range listeners {
		lis.Close()
	}
	return ports
}

func TestIntegrationMultiProcess(t *testing.T) {
	bin := binaries(t)
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "net.dsg")

	// 1. Generate a dataset with gengraph.
	out, err := exec.Command(filepath.Join(bin, "gengraph"),
		"-nodes", "2000", "-degree", "8", "-seed", "5", "-out", graphPath).CombinedOutput()
	if err != nil {
		t.Fatalf("gengraph: %v\n%s", err, out)
	}

	// 2. Start two dimmd worker processes on hosts of 1 and 3 cores: each
	// defaults its shard count to its GOMAXPROCS, unlike the in-process
	// run below. Shards split one stream, so the count never changes the
	// sample.
	ports := freePorts(t, 2)
	for i, port := range ports {
		cmd := exec.Command(filepath.Join(bin, "dimmd"),
			"-graph", graphPath, "-listen", fmt.Sprintf("127.0.0.1:%d", port),
			"-model", "ic", "-seed", "9", "-seed-index", fmt.Sprint(i))
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", 1+2*i))
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting dimmd %d: %v", i, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
	}
	// Wait for both workers to accept connections.
	for _, port := range ports {
		deadline := time.Now().Add(10 * time.Second)
		for {
			conn, err := net.Dial("tcp", fmt.Sprintf("127.0.0.1:%d", port))
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker on port %d never came up", port)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// 3. Run the master against the remote workers.
	addrs := fmt.Sprintf("127.0.0.1:%d,127.0.0.1:%d", ports[0], ports[1])
	out, err = exec.Command(filepath.Join(bin, "dimm"),
		"-graph", graphPath, "-workers", addrs,
		"-k", "5", "-eps", "0.4", "-delta", "0.05", "-seed", "9",
		"-verify", "2000").CombinedOutput()
	if err != nil {
		t.Fatalf("dimm master: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "seeds (5):") {
		t.Fatalf("master output missing seeds:\n%s", text)
	}
	if !strings.Contains(text, "monte-carlo verification") {
		t.Fatalf("master output missing verification:\n%s", text)
	}

	// 4. The same run with in-process machines must produce the same
	// seed line (same base seed, same machine count, same streams).
	out2, err := exec.Command(filepath.Join(bin, "dimm"),
		"-graph", graphPath, "-machines", "2",
		"-k", "5", "-eps", "0.4", "-delta", "0.05", "-seed", "9").CombinedOutput()
	if err != nil {
		t.Fatalf("dimm local: %v\n%s", err, out2)
	}
	seedLine := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "seeds (5):") {
				return line
			}
		}
		return ""
	}
	if a, b := seedLine(text), seedLine(string(out2)); a == "" || a != b {
		t.Fatalf("TCP and in-process CLI runs disagree:\n%q\n%q", a, b)
	}
}

func TestIntegrationCLITools(t *testing.T) {
	bin := binaries(t)
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "net.dsg")
	out, err := exec.Command(filepath.Join(bin, "gengraph"),
		"-nodes", "1500", "-degree", "6", "-seed", "3", "-out", graphPath).CombinedOutput()
	if err != nil {
		t.Fatalf("gengraph: %v\n%s", err, out)
	}

	// gengraph -stats
	out, err = exec.Command(filepath.Join(bin, "gengraph"), "-stats", graphPath).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "avg degree") {
		t.Fatalf("gengraph -stats: %v\n%s", err, out)
	}

	// dimm -algo opimc
	out, err = exec.Command(filepath.Join(bin, "dimm"),
		"-graph", graphPath, "-algo", "opimc", "-machines", "2",
		"-k", "4", "-eps", "0.4", "-delta", "0.05", "-seed", "2").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "certified:") {
		t.Fatalf("dimm -algo opimc: %v\n%s", err, out)
	}

	// influapp all three modes.
	for _, mode := range []string{"targeted", "budgeted", "seedmin"} {
		out, err = exec.Command(filepath.Join(bin, "influapp"),
			"-graph", graphPath, "-mode", mode, "-machines", "2",
			"-eps", "0.4", "-k", "5", "-budget", "10", "-goal-frac", "0.02",
			"-max-seeds", "100", "-seed", "4").CombinedOutput()
		if err != nil {
			t.Fatalf("influapp -mode %s: %v\n%s", mode, err, out)
		}
	}

	// experiments: one tiny figure.
	out, err = exec.Command(filepath.Join(bin, "experiments"),
		"-run", "tableIII", "-datasets", "facebook-sim", "-scale", "0.25").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "facebook-sim") {
		t.Fatalf("experiments: %v\n%s", err, out)
	}
	// An unknown -run name fails instead of running nothing.
	out, err = exec.Command(filepath.Join(bin, "experiments"), "-run", "sweep").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "valid names: tableIII") {
		t.Fatalf("experiments -run sweep: err %v, want a failure listing the valid names\n%s", err, out)
	}
}

// TestIntegrationGengraphThenDimm pins that a graph made by gengraph
// and read by dimm gives what dimm's own generator gave before it was
// removed: the seeds (and θ) below are what dimm printed when it
// generated the same 3000-node, degree-8 graph itself with seed 5, for
// -k 5 -machines 2 -eps 0.4 under each model/weights setting.
func TestIntegrationGengraphThenDimm(t *testing.T) {
	bin := binaries(t)
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.dsg")
	out, err := exec.Command(filepath.Join(bin, "gengraph"),
		"-nodes", "3000", "-degree", "8", "-seed", "5", "-out", graphPath).CombinedOutput()
	if err != nil {
		t.Fatalf("gengraph: %v\n%s", err, out)
	}
	for _, c := range []struct {
		flags []string
		want  []string
	}{
		{[]string{"-model", "ic"}, []string{"seeds (5): [2862 2999 2967 2656 2747]", "theta: 91862 RR sets"}},
		{[]string{"-model", "lt"}, []string{"seeds (5): [2862 2967 2999 2656 2677]"}},
		{[]string{"-weights", "trivalency"}, []string{"seeds (5): [2384 1672 2910 2503 2558]", "theta: 492697 RR sets"}},
	} {
		args := append([]string{"-graph", graphPath, "-seed", "5", "-k", "5", "-machines", "2", "-eps", "0.4"}, c.flags...)
		out, err := exec.Command(filepath.Join(bin, "dimm"), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("dimm %v: %v\n%s", c.flags, err, out)
		}
		for _, line := range c.want {
			if !strings.Contains(string(out), line) {
				t.Errorf("dimm %v: output lacks %q:\n%s", c.flags, line, out)
			}
		}
	}
}

// TestIntegrationGengraphOutputs: every file gengraph writes is one the
// other commands read back, and an output name they would not read as
// written is refused before anything is written.
func TestIntegrationGengraphOutputs(t *testing.T) {
	bin := binaries(t)
	dir := t.TempDir()
	out, err := exec.Command(filepath.Join(bin, "gengraph"),
		"-datasets", "facebook-sim", "-scale", "0.25", "-out", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("gengraph -datasets: %v\n%s", err, out)
	}
	txt := filepath.Join(dir, "g.txt")
	out, err = exec.Command(filepath.Join(bin, "gengraph"),
		"-nodes", "500", "-degree", "4", "-out", txt).CombinedOutput()
	if err != nil {
		t.Fatalf("gengraph -out g.txt: %v\n%s", err, out)
	}
	for _, path := range []string{filepath.Join(dir, "facebook-sim.dsg"), txt} {
		out, err := exec.Command(filepath.Join(bin, "dimm"),
			"-graph", path, "-k", "3", "-eps", "0.5", "-metrics=false").CombinedOutput()
		if err != nil || !strings.Contains(string(out), "seeds (3):") {
			t.Fatalf("dimm -graph %s: %v\n%s", path, err, out)
		}
	}
	for _, name := range []string{"g.bin", "g"} {
		path := filepath.Join(dir, name)
		out, err := exec.Command(filepath.Join(bin, "gengraph"),
			"-nodes", "500", "-degree", "4", "-out", path).CombinedOutput()
		if err == nil {
			t.Fatalf("gengraph -out %s succeeded:\n%s", name, out)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("gengraph -out %s left a file behind (stat: %v)", name, err)
		}
	}
	out, err = exec.Command(filepath.Join(bin, "dimm"), "-graph", filepath.Join(dir, "old.bin")).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "gengraph") {
		t.Fatalf("dimm -graph old.bin: err %v, want a refusal naming gengraph\n%s", err, out)
	}
}
