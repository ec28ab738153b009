package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one d2cqd process, started as an operator would: durable, with
// fsync per flush, on free ports.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	stderr   *lockedBuffer
	exited   chan struct{}
	waitErr  error
}

// lockedBuffer keeps the daemon's recent diagnostics (at most 64 KiB; older
// output is dropped) for error messages.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.b.Len() > 1<<16 {
		l.b.Reset()
	}
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.TrimSpace(l.b.String())
}

// daemonArgs are the flags every start uses; extra carries the workload's
// fixed flags.
func daemonArgs(dataDir string, extra []string) []string {
	return append([]string{
		"-addr", "127.0.0.1:0",
		"-listen-wire", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-fsync", "always",
	}, extra...)
}

// startDaemon launches bin and waits until both listeners are up, which
// d2cqd reaches only after recovering its data directory.
func startDaemon(ctx context.Context, bin string, args []string, gomaxprocs int) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: &lockedBuffer{}, exited: make(chan struct{})}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting d2cqd: %w", err)
	}
	addrs := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		var a [2]string
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "d2cqd listening on http://"); ok {
				a[0] = v
			} else if v, ok := strings.CutPrefix(line, "d2cqd wire listening on "); ok {
				a[1] = v
				addrs <- a
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addrs:
		d.httpAddr, d.wireAddr = a[0], a[1]
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("d2cqd exited during start-up (%v): %s", d.waitErr, d.stderr)
	case <-ctx.Done():
		d.kill()
		return nil, fmt.Errorf("d2cqd start-up: %w", ctx.Err())
	}
}

// kill is kill -9: no shutdown checkpoint, no flush. It returns once the
// process has exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// stop shuts the daemon down gracefully, falling back to kill after a
// while.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

// statusMB reads one memory field (VmHWM, VmRSS) of the daemon's
// /proc status in MB.
func (d *daemon) statusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(v)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, d.cmd.Process.Pid)
}

// sampleRSS samples the daemon's resident set every interval until the
// returned stop is called; stop returns the samples in MB.
func (d *daemon) sampleRSS(interval time.Duration) (stop func() []float64) {
	done := make(chan struct{})
	out := make(chan []float64)
	go func() {
		var samples []float64
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			if mb, err := d.statusMB("VmRSS"); err == nil {
				samples = append(samples, mb)
			}
			select {
			case <-t.C:
			case <-done:
				out <- samples
				return
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}
