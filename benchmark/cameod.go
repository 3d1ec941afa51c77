package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
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

// buildCameod builds cmd/cameod once per invocation into .bench_build.
// The go command decides staleness, so a warm build costs a fraction of a
// second; its wall time is the layer line build.cameod_s and is not part
// of setup_s.
func (e *env) buildCameod() error {
	if e.cameod != "" {
		return nil
	}
	if err := os.MkdirAll(e.binDir, 0o755); err != nil {
		return err
	}
	bin := filepath.Join(e.binDir, "cameod")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cameod")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cameod: %v\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	e.cameod = bin
	return nil
}

// daemon is one running cameod child.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  bytes.Buffer
	done bool
}

// startDaemon starts cameod on a free loopback port over dir and waits
// until /healthz answers.
func (e *env) startDaemon(dir string, flags ...string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{base: "http://" + addr}
	args := append([]string{"-addr", addr, "-dir", dir}, flags...)
	d.cmd = exec.Command(e.cameod, args...)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	// The child must not outlive the harness, whatever kills the harness.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	probe := newConn(d.base)
	defer probe.close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, err := probe.do(http.MethodGet, "/healthz", nil)
		if err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("cameod not ready after 10s: %v\n%s", err, d.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (drain, flush, close) and waits for a clean exit.
func (d *daemon) stop() error {
	if d.done {
		return nil
	}
	d.done = true
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	waited := make(chan error, 1)
	go func() { waited <- d.cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			return fmt.Errorf("cameod exited uncleanly: %v\n%s", err, d.log.String())
		}
		return nil
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-waited
		return errors.New("cameod did not exit within 60s of SIGTERM")
	}
}

// kill is the error-path stop: no flush, just make sure nothing is left.
func (d *daemon) kill() {
	if d.done {
		return
	}
	d.done = true
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// peakRSSMB reads VmHWM (peak resident set) of pid from /proc.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 2 && fields[1] == "kB" {
				kb, err := strconv.ParseFloat(fields[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line for pid %d", pid)
}

// procCPUSeconds reads utime+stime of pid from /proc/<pid>/stat, so a
// window's CPU can be taken as a difference while the process runs.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ") ".
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (ut + st) / clockTicks, nil
}

// selfCPUSeconds is the harness's own user+system CPU so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the sizes of the regular files under dir: everything the
// store keeps on disk (blocks, tails, rollup series, bookkeeping files).
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
