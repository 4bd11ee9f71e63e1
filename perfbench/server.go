package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one cfserve subprocess on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan error // receives cmd.Wait's result once
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches cfserve, registers both benchmark tables, and
// returns once /healthz answers; the duration is the set-up time.
func startServer(bin, logPath string, conns int) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	start := time.Now()
	cmd := exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-pprof", "off")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start cfserve: %w", err)
	}
	s := &server{
		cmd:    cmd,
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		client: newClient(conns),
		done:   make(chan error, 1),
	}
	go func() { s.done <- cmd.Wait() }()
	if err := s.waitHealthy(30 * time.Second); err != nil {
		s.stop()
		return nil, 0, err
	}
	for _, ts := range []tableSpec{ordersSpec, liveSpec} {
		if err := s.postJSON("/tables", ts, http.StatusCreated); err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("register %s: %w", ts.Name, err)
		}
	}
	if err := s.waitHealthy(10 * time.Second); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

func (s *server) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("cfserve exited during start-up: %v", err)
		default:
		}
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cfserve not healthy after %v", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited after 15 seconds. It returns once the process is gone.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		s.done <- err
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		s.done <- <-s.done
	}
}

// postJSON posts v and fails unless the response status is want.
func (s *server) postJSON(path string, v any, want int) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return nil
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return out, nil
}

// scrape reads the server's /metrics exposition.
func (s *server) scrape() (map[string]float64, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseExposition(bytes.NewReader(b))
}

// codecs lists the server's registered codecs.
func (s *server) codecs() ([]string, error) {
	b, err := s.get("/codecs")
	if err != nil {
		return nil, err
	}
	var out struct {
		Codecs []string `json:"codecs"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("GET /codecs: %w", err)
	}
	return out.Codecs, nil
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil || len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", sc.Text())
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the server's consumed CPU time (user + system) from
// /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks float64
	for _, v := range f[11:13] { // utime, stime
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat: %w", err)
		}
		ticks += t
	}
	return ticks / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times (100 on
// every Linux architecture Go supports).
const clockTicks = 100

// do sends one op and returns the response; the caller owns nothing.
func (s *server) do(ctx context.Context, o *op) (status int, body []byte, timing string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get("Server-Timing"), err
}
