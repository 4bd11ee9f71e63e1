// Package cmd_test builds and exercises the command-line tools end to end:
// datagen → cfest over a real file, and cfbench's registry. These are the
// only tests that run the binaries as a user would.
package cmd_test

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildTool compiles one command into a temp dir and returns the binary path.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "samplecf/cmd/"+name)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestDatagenThenCfest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	datagen := buildTool(t, "datagen")
	cfest := buildTool(t, "cfest")
	csv := filepath.Join(t.TempDir(), "data.csv")

	out := run(t, datagen, "-n", "5000", "-d", "200", "-k", "20", "-seed", "3", "-o", csv, "-stats")
	if !strings.Contains(out, "analytic CF") {
		t.Fatalf("datagen -stats output missing analytics:\n%s", out)
	}
	if fi, err := os.Stat(csv); err != nil || fi.Size() == 0 {
		t.Fatalf("datagen produced no file: %v", err)
	}

	out = run(t, cfest, "-csv", csv, "-schema", "a:char:20", "-codec", "nullsuppression",
		"-fraction", "0.1", "-seed", "1", "-truth")
	for _, want := range []string{"estimated CF", "exact CF", "sample rows (r)   : 500", "2σ interval"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cfest output missing %q:\n%s", want, out)
		}
	}
	// The ratio error printed must be small at a 10% sample.
	if !strings.Contains(out, "ratio error 1.0") {
		t.Fatalf("cfest ratio error not near 1:\n%s", out)
	}
}

func TestCfestGeneratedMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	cfest := buildTool(t, "cfest")
	out := run(t, cfest, "-gen", "-n", "20000", "-d", "500", "-codec", "globaldict-p4",
		"-fraction", "0.05", "-seed", "2")
	if !strings.Contains(out, "codec             : globaldict(p=4)") {
		t.Fatalf("unexpected codec line:\n%s", out)
	}
	// Error paths: missing inputs exit non-zero.
	if err := exec.Command(cfest).Run(); err == nil {
		t.Fatal("cfest with no inputs succeeded")
	}
	if err := exec.Command(cfest, "-csv", "/nonexistent.csv", "-schema", "a:char:5").Run(); err == nil {
		t.Fatal("cfest with missing file succeeded")
	}
	if err := exec.Command(cfest, "-gen", "-codec", "bogus").Run(); err == nil {
		t.Fatal("cfest with unknown codec succeeded")
	}
}

// TestCfserveGracefulShutdown runs the service binary end to end: start on
// an ephemeral port, serve a /whatif batch over real HTTP, then deliver
// SIGTERM and require a clean drain and zero exit.
func TestCfserveGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	cfserve := buildTool(t, "cfserve")
	cmd := exec.Command(cfserve, "-addr", "127.0.0.1:0", "-demo")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// One goroutine reaps the child, started on first use; the cleanup
	// kills the child (a no-op once it has exited) and waits for the reap,
	// so no path leaves it running.
	exited := make(chan struct{})
	var waitErr error
	var reap sync.Once
	wait := func() {
		reap.Do(func() {
			go func() { waitErr = cmd.Wait(); close(exited) }()
		})
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		wait()
		<-exited
	})

	// The first log line reports the bound address.
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.Fields(line[i+len("listening on "):])[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listening line on stderr (scan err %v)", sc.Err())
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	resp, err := http.Post("http://"+addr+"/whatif", "application/json",
		strings.NewReader(`{"table":"demo","fraction":0.01,"seed":1,"candidates":[
			{"columns":["region"],"codec":"nullsuppression"},
			{"columns":["region"],"codec":"rle"}]}`))
	if err != nil {
		t.Fatalf("whatif request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "shared_sample") {
		t.Fatalf("whatif response missing shared_sample: %s", body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wait()
	select {
	case <-exited:
		if waitErr != nil {
			t.Fatalf("cfserve exited non-zero after SIGTERM: %v", waitErr)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cfserve did not exit within 15s of SIGTERM")
	}
}

// TestCfserveExitsWhenOrphaned starts cfserve under a shell that exits
// once the server is up, orphaning it, and requires the server to notice
// the re-parenting and drain within 15s. The server's stderr is a pipe
// only it holds after the shell exits, so end of file there is its exit;
// the test adopts and reaps it, so no exited server lingers.
func TestCfserveExitsWhenOrphaned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	cfserve := buildTool(t, "cfserve")
	adoptOrphans(t)
	logR, logW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer logR.Close()
	// The shell starts the server, prints its pid and waits on stdin, so
	// the server records the shell as its parent before the shell exits.
	sh := exec.Command("sh", "-c", `"$0" -addr 127.0.0.1:0 & echo $!; read _ || true`, cfserve)
	sh.Stderr = logW
	stdin, err := sh.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := sh.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Start(); err != nil {
		t.Fatal(err)
	}
	logW.Close()
	exited := make(chan struct{})
	var pid int
	t.Cleanup(func() {
		select {
		case <-exited:
		default:
			if pid > 0 {
				_ = syscall.Kill(pid, syscall.SIGKILL)
			}
		}
		_ = sh.Process.Kill()
		_ = sh.Wait()
		if pid > 0 {
			// The orphaned server is this process's child now (adoptOrphans):
			// reap it. Where it is not, the call fails and init reaps it.
			var ws syscall.WaitStatus
			_, _ = syscall.Wait4(pid, &ws, 0, nil)
		}
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("read server pid: %v", err)
	}
	if pid, err = strconv.Atoi(strings.TrimSpace(line)); err != nil {
		t.Fatalf("server pid %q: %v", line, err)
	}

	sc := bufio.NewScanner(logR)
	for sc.Scan() && !strings.Contains(sc.Text(), "listening on ") {
	}
	var log strings.Builder
	go func() {
		defer close(exited)
		for sc.Scan() {
			log.WriteString(sc.Text() + "\n")
		}
	}()
	stdin.Close() // the shell exits, orphaning the server
	if err := sh.Wait(); err != nil {
		t.Fatalf("shell: %v", err)
	}
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		t.Fatal("orphaned cfserve still running 15s after its parent exited")
	}
	if out := log.String(); !strings.Contains(out, "parent process exited") || !strings.Contains(out, "drained cleanly") {
		t.Fatalf("orphaned cfserve did not take the drain path; log:\n%s", out)
	}
}

func TestCfbenchListAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	cfbench := buildTool(t, "cfbench")
	out := run(t, cfbench, "-list")
	for _, id := range []string{"E1", "E5", "E10", "E13"} {
		if !strings.Contains(out, id) {
			t.Fatalf("cfbench -list missing %s:\n%s", id, out)
		}
	}
	out = run(t, cfbench, "-exp", "E5", "-scale", "0.02", "-seed", "7")
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "completed in") {
		t.Fatalf("cfbench E5 output malformed:\n%s", out)
	}
	if err := exec.Command(cfbench, "-exp", "E99").Run(); err == nil {
		t.Fatal("cfbench with unknown experiment succeeded")
	}
}
