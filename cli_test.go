package cryptonn

// CLI integration test: builds the real binaries and runs the full
// distributed pipeline of Fig. 1 — authority, training server, data-owner
// client, prediction client — as separate processes over loopback TCP.

import (
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cryptonn/internal/nn"
)

// buildBinaries compiles every cmd into dir and returns their paths.
func buildBinaries(t *testing.T, dir string, names ...string) map[string]string {
	t.Helper()
	bins := make(map[string]string, len(names))
	for _, name := range names {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		bins[name] = out
	}
	return bins
}

// freePort reserves and releases a loopback port: an address nothing
// listens on, for the fail-fast sub-tests. Children that must listen bind
// 127.0.0.1:0 themselves and report the address (boundAddr) — re-binding a
// released port races with every other process on the box.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// childLog collects a child's stderr while the test reads it.
type childLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *childLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *childLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// boundAddr waits for the child to log "<marker><addr>" — printed once its
// listener is bound, so the address accepts connections — and returns addr.
func boundAddr(t *testing.T, log *childLog, marker string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if _, rest, ok := strings.Cut(log.String(), marker); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				return addr
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("no %q line after %s; log:\n%s", marker, timeout, log.String())
	return ""
}

func TestCLIPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries; skipped in -short")
	}
	dir := t.TempDir()
	bins := buildBinaries(t, dir,
		"cryptonn-authority", "cryptonn-server", "cryptonn-client", "cryptonn-predict",
		"cryptonn-loadgen")

	modelPath := filepath.Join(dir, "model.gob")

	// --- Authority. ---
	authority := exec.Command(bins["cryptonn-authority"],
		"-listen", "127.0.0.1:0", "-bits", "64")
	var authLog childLog
	authority.Stderr = &authLog
	if err := authority.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = authority.Process.Signal(syscall.SIGINT)
		_ = authority.Wait()
	}()
	authAddr := boundAddr(t, &authLog, "listening on ", 30*time.Second)

	// --- Training server (trains, saves, then serves predictions). ---
	server := exec.Command(bins["cryptonn-server"],
		"-listen", "127.0.0.1:0",
		"-authority", authAddr,
		"-features", "784", "-classes", "10", "-hidden", "2",
		"-epochs", "1", "-expect", "1", "-seed", "3",
		"-save", modelPath,
		"-predict-listen", "127.0.0.1:0",
	)
	server.Env = append(os.Environ(), "GOMAXPROCS=1")
	var serverLog childLog
	server.Stderr = &serverLog
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	serverDone := make(chan error, 1)
	go func() { serverDone <- server.Wait() }()
	defer func() {
		_ = server.Process.Signal(syscall.SIGINT)
		<-serverDone
	}()
	trainAddr := boundAddr(t, &serverLog, "training: listening on ", 30*time.Second)

	// --- Data-owner client submits one encrypted batch. ---
	client := exec.Command(bins["cryptonn-client"],
		"-authority", authAddr,
		"-server", trainAddr,
		"-samples", "16", "-batch", "16", "-seed", "5",
	)
	if msg, err := client.CombinedOutput(); err != nil {
		t.Fatalf("client: %v\n%s", err, msg)
	}

	// --- Server trains, then the prediction endpoint comes up. ---
	predictAddr := boundAddr(t, &serverLog, "predictions: listening on ", 5*time.Minute)

	// --- Prediction client asks for encrypted predictions. ---
	predict := exec.Command(bins["cryptonn-predict"],
		"-authority", authAddr,
		"-server", predictAddr,
		"-features", "784", "-classes", "10", "-samples", "3", "-seed", "11",
	)
	predOut, err := predict.CombinedOutput()
	if err != nil {
		t.Fatalf("predict: %v\n%s\nserver log:\n%s", err, predOut, serverLog.String())
	}
	if !strings.Contains(string(predOut), "3 encrypted samples predicted") {
		t.Errorf("unexpected predict output:\n%s", predOut)
	}

	// --- Load generator drives concurrent clients at the same endpoint
	// (the coalescing dispatcher's cross-client path). ---
	loadgen := exec.Command(bins["cryptonn-loadgen"],
		"-authority", authAddr,
		"-server", predictAddr,
		"-features", "784", "-classes", "10",
		"-clients", "2", "-requests", "2", "-samples", "1",
	)
	loadOut, err := loadgen.CombinedOutput()
	if err != nil {
		t.Fatalf("loadgen: %v\n%s\nserver log:\n%s", err, loadOut, serverLog.String())
	}
	if !strings.Contains(string(loadOut), "samples/sec") {
		t.Errorf("loadgen output missing throughput line:\n%s", loadOut)
	}

	// --- The checkpoint the server saved loads and has the right shape. ---
	f, err := os.Open(modelPath)
	if err != nil {
		t.Fatalf("server did not save a model: %v", err)
	}
	defer f.Close()
	model, err := nn.Load(f)
	if err != nil {
		t.Fatalf("loading saved model: %v", err)
	}
	first, ok := model.Layers[0].(*nn.DenseLayer)
	if !ok || first.In != 784 || first.Out != 2 {
		t.Errorf("saved model first layer = %s", model.Layers[0].Name())
	}

	// --- Server log shows the training actually happened. ---
	if !strings.Contains(serverLog.String(), "trained on 1 batches") {
		t.Errorf("server log missing training line:\n%s", serverLog.String())
	}
}

// TestCLIFlagAndHelpPaths smoke-runs the entry points whose main paths the
// e2e pipeline does not reach: flag parsing, -h usage output, and the
// bad-flag exit code of cryptonn-bench, cryptonn-predict, cryptonn-server
// and cryptonn-authority. This keeps CI exercising the binaries, not just
// internal/.
func TestCLIFlagAndHelpPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the real binaries; skipped in -short")
	}
	dir := t.TempDir()
	bins := buildBinaries(t, dir, "cryptonn-bench", "cryptonn-predict", "cryptonn-loadgen", "cryptonn-server", "cryptonn-authority")

	// runBin returns combined output and the exit code (-1 on start failure).
	runBin := func(bin string, args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bins[bin], args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			return string(out), 0
		}
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			t.Fatalf("%s %v: %v", bin, args, err)
		}
		return string(out), exitErr.ExitCode()
	}

	t.Run("bench help lists experiments", func(t *testing.T) {
		out, code := runBin("cryptonn-bench", "-h")
		if code == 0 {
			t.Errorf("-h exited 0, want non-zero (flag.ErrHelp path)")
		}
		for _, flag := range []string{"-exp", "-paper", "-seed"} {
			if !strings.Contains(out, flag) {
				t.Errorf("-h usage missing %s:\n%s", flag, out)
			}
		}
		if strings.Contains(out, "ablation") {
			t.Errorf("-exp usage still names the deleted ablation experiment:\n%s", out)
		}
	})
	t.Run("bench rejects unknown flag", func(t *testing.T) {
		out, code := runBin("cryptonn-bench", "-no-such-flag")
		if code == 0 {
			t.Errorf("unknown flag exited 0\n%s", out)
		}
		if !strings.Contains(out, "Usage") && !strings.Contains(out, "flag provided") {
			t.Errorf("unknown flag produced no usage text:\n%s", out)
		}
	})
	t.Run("no -par flag: GOMAXPROCS is the worker control", func(t *testing.T) {
		for _, bin := range []string{"cryptonn-bench", "cryptonn-server"} {
			out, code := runBin(bin, "-par", "1")
			if code == 0 || !strings.Contains(out, "flag provided but not defined: -par") {
				t.Errorf("%s -par 1 exited %d, want a flag error:\n%s", bin, code, out)
			}
		}
	})
	t.Run("no wire tuning flags: the dispatcher and the authority cap are constants", func(t *testing.T) {
		for _, c := range []struct{ bin, flag string }{
			{"cryptonn-server", "-coalesce-samples"},
			{"cryptonn-server", "-predict-queue"},
			{"cryptonn-authority", "-max-eta"},
		} {
			out, code := runBin(c.bin, c.flag, "1")
			if code == 0 || !strings.Contains(out, "flag provided but not defined: "+c.flag) {
				t.Errorf("%s %s 1 exited %d, want a flag error:\n%s", c.bin, c.flag, code, out)
			}
		}
	})
	t.Run("bench unknown experiment fails and lists the valid ones", func(t *testing.T) {
		out, code := runBin("cryptonn-bench", "-exp", "does-not-exist")
		if code == 0 {
			t.Errorf("unknown -exp exited 0:\n%s", out)
		}
		if !strings.Contains(out, "fig3, fig4, fig5, fig6, table3, comm, icd") {
			t.Errorf("unknown -exp did not list the valid experiments:\n%s", out)
		}
	})
	t.Run("predict help lists connection flags", func(t *testing.T) {
		out, code := runBin("cryptonn-predict", "-h")
		if code == 0 {
			t.Errorf("-h exited 0, want non-zero (flag.ErrHelp path)")
		}
		for _, flag := range []string{"-authority", "-server", "-features", "-samples", "-label-key"} {
			if !strings.Contains(out, flag) {
				t.Errorf("-h usage missing %s:\n%s", flag, out)
			}
		}
	})
	t.Run("predict rejects unknown flag", func(t *testing.T) {
		out, code := runBin("cryptonn-predict", "-bogus")
		if code == 0 {
			t.Errorf("unknown flag exited 0\n%s", out)
		}
	})
	t.Run("loadgen help lists load shape flags", func(t *testing.T) {
		out, code := runBin("cryptonn-loadgen", "-h")
		if code == 0 {
			t.Errorf("-h exited 0, want non-zero (flag.ErrHelp path)")
		}
		for _, flag := range []string{"-clients", "-requests", "-samples", "-server", "-authority"} {
			if !strings.Contains(out, flag) {
				t.Errorf("-h usage missing %s:\n%s", flag, out)
			}
		}
	})
	t.Run("loadgen rejects unknown flag", func(t *testing.T) {
		out, code := runBin("cryptonn-loadgen", "-bogus")
		if code == 0 {
			t.Errorf("unknown flag exited 0\n%s", out)
		}
	})
	t.Run("loadgen fails fast on unreachable authority", func(t *testing.T) {
		out, code := runBin("cryptonn-loadgen", "-authority", freePort(t), "-clients", "1", "-requests", "1")
		if code == 0 {
			t.Errorf("unreachable authority exited 0:\n%s", out)
		}
	})
	t.Run("predict fails fast on unreachable authority", func(t *testing.T) {
		// A reserved-then-released port: nothing listens, so the dial path
		// must error out with a non-zero exit instead of hanging.
		out, code := runBin("cryptonn-predict", "-authority", freePort(t), "-samples", "1")
		if code == 0 {
			t.Errorf("unreachable authority exited 0:\n%s", out)
		}
	})
}
