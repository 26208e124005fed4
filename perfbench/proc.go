package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one mcaserved process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
	log  *os.File
}

// startServer launches mcaserved with args on a free loopback port and
// waits until /healthz answers.
func startServer(ctx context.Context, cfg config, name string, args ...string) (*server, error) {
	if cfg.server == "" {
		return nil, fmt.Errorf("%s needs -mcaserved", name)
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(cfg.out, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.server, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, done: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait()
		close(s.done)
	}()
	if err := s.waitHealthy(ctx, 20*time.Second); err != nil {
		s.stop()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) waitHealthy(ctx context.Context, limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("exited before answering /healthz")
		default:
		}
		if resp, err := client.Get(s.url + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("/healthz did not answer within %v", limit)
}

// stop terminates the process and waits until it has exited.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// vmHWM reads a process's peak resident set size ("self" or a pid) in
// MiB.
func vmHWM(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func (s *server) peakRSSMB() (float64, error) {
	return vmHWM(strconv.Itoa(s.cmd.Process.Pid))
}
