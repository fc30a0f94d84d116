package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	opTimeout     = 60 * time.Second // one operation, however it is driven
	daemonStartup = 10 * time.Second // exec to "listening on" line
	daemonGrace   = 5 * time.Second  // SIGTERM to exit before SIGKILL
)

// cliRun is what one exec of a binary cost and produced.
type cliRun struct {
	wall   time.Duration // exec to exit, stdout drained through a pipe
	first  time.Duration // exec to the first complete sample row on the pipe
	cpu    time.Duration // user+sys of the child, from its rusage
	rssKB  int64         // child's max RSS
	stdout []byte
	stderr string
}

// runCLI execs bin with args, draining stdout through a pipe as a user's
// shell pipeline would, and fails on a non-zero exit.
func runCLI(ctx context.Context, bin string, args ...string) (cliRun, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return cliRun{}, err
	}
	var r cliRun
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	// The header and the first sample row are lines one and two.
	var out bytes.Buffer
	buf := make([]byte, 64<<10)
	lines := 0
	for {
		n, rerr := pipe.Read(buf)
		if n > 0 {
			if lines < 2 {
				if lines += bytes.Count(buf[:n], []byte{'\n'}); lines >= 2 {
					r.first = time.Since(start)
				}
			}
			out.Write(buf[:n])
		}
		if rerr != nil {
			break // EOF, or the pipe closed under a killed child: Wait reports it
		}
	}
	err = cmd.Wait()
	r.wall = time.Since(start)
	r.stdout, r.stderr = out.Bytes(), stderr.String()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssKB = ru.Maxrss
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, strings.TrimSpace(r.stderr))
	}
	return r, nil
}

// daemon is a long-running child (matexd, matexsrv) on an ephemeral port.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // host:port it reported listening on
	exited chan struct{}
	stderr bytes.Buffer
}

// startDaemon execs bin on 127.0.0.1:0 and waits for its "listening on
// ADDR" line. The child is SIGTERMed when ctx ends, so a signal to the
// harness cannot leave it behind; stop is still the normal way down.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.CommandContext(ctx, bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	d.cmd.Cancel = func() error { return d.cmd.Process.Signal(syscall.SIGTERM) }
	d.cmd.WaitDelay = daemonGrace
	d.cmd.Stderr = &d.stderr
	pipe, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1) // one send; the reader must not block on it
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- strings.TrimSpace(a)
				break
			}
		}
		_, _ = io.Copy(io.Discard, pipe) // draining so the child never blocks on stdout
		_ = d.cmd.Wait()                 // the exit status of a stopped daemon is not a result
		close(d.exited)
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before listening: %s", bin, strings.TrimSpace(d.stderr.String()))
	case <-time.After(daemonStartup):
		d.stop()
		return nil, fmt.Errorf("%s did not report a listening address within %v", bin, daemonStartup)
	}
}

// stop SIGTERMs the daemon and returns once it has exited, escalating to
// SIGKILL after the grace period.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(daemonGrace):
		_ = d.cmd.Process.Kill() // fails only if it already exited
		<-d.exited
	}
}

// cpu returns the time the daemon's threads have spent on a CPU so far,
// user and system: the sum of /proc/<pid>/task/*/schedstat, which counts
// nanoseconds. (/proc/<pid>/stat counts 10 ms ticks, too coarse for a
// slice of forty 50 ms jobs: its per-job figures land on a grid of
// 0.25 ms and repeat from run to run.) A thread that exits takes its
// count with it; the Go runtime of the daemons does not retire threads.
func (d *daemon) cpu() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		onCPU, _, _ := strings.Cut(string(b), " ")
		ns, err := strconv.ParseInt(onCPU, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		sum += time.Duration(ns)
	}
	if sum == 0 {
		return 0, fmt.Errorf("no scheduler statistics under /proc/%d/task", d.cmd.Process.Pid)
	}
	return sum, nil
}

// peakRSSKB returns the daemon's high-water RSS, from /proc/<pid>/status.
func (d *daemon) peakRSSKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
