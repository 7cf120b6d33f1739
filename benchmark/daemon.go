package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The program under test runs as a subprocess with its existing flags.
// This file builds it, starts it on an ephemeral port, finds the port in
// its "listening on" log line, reads its /proc counters, and makes sure it
// dies with the harness on every exit path: a leaked daemon would keep a
// port and a data directory alive and silently serve the next run.

const (
	daemonStartTimeout = 20 * time.Second
	daemonStopTimeout  = 30 * time.Second
)

// workDir is the harness's scratch root inside the checkout.
const workDir = ".bench_build"

// buildDaemon compiles ./cmd/cbfww-serve from the checkout in the current
// directory and returns the binary's path.
func buildDaemon() (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "cbfww-serve", "main.go")); err != nil {
		return "", fmt.Errorf("not at the root of a cbfww checkout: %w", err)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(workDir, "cbfww-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cbfww-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build ./cmd/cbfww-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// live tracks running daemons so every exit path can kill them.
var live struct {
	sync.Mutex
	procs map[*daemon]struct{}
}

// killAll kills and reaps every daemon still running.
func killAll() {
	live.Lock()
	procs := make([]*daemon, 0, len(live.procs))
	for d := range live.procs {
		procs = append(procs, d)
	}
	live.Unlock()
	for _, d := range procs {
		d.kill()
	}
}

// daemon is one running cbfww-serve.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	pid    int
	exited chan struct{} // closed once Wait has returned
	// listening is when the daemon reported its address.
	listening time.Time
	tailMu    sync.Mutex
	tail      []string // last stderr lines, for diagnostics
}

var listeningRE = regexp.MustCompile(`listening on http://(\S+)`)

// startDaemon launches bin with args plus an ephemeral -addr and returns
// once the daemon has logged its bound address.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// If the harness is killed outright the kernel takes the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = nil
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, exited: make(chan struct{})}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*daemon]struct{})
	}
	live.procs[d] = struct{}{}
	live.Unlock()

	addrCh := make(chan string, 1) // at most one send: the first match
	go func() {
		// Reading stderr to EOF must finish before Wait (os/exec's pipe
		// contract), hence one goroutine does both.
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			d.tailMu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.tailMu.Unlock()
			if m := listeningRE.FindStringSubmatch(line); m != nil && !found {
				found = true
				addrCh <- m[1]
			}
		}
		_ = cmd.Wait() // exit status is judged by the caller via exited + signals sent
		live.Lock()
		delete(live.procs, d)
		live.Unlock()
		close(d.exited)
	}()

	select {
	case d.addr = <-addrCh:
		d.listening = time.Now()
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("daemon exited before listening:\n%s", d.stderrTail())
	case <-time.After(daemonStartTimeout):
		d.kill()
		return nil, fmt.Errorf("daemon did not listen within %v:\n%s", daemonStartTimeout, d.stderrTail())
	}
}

func (d *daemon) stderrTail() string {
	d.tailMu.Lock()
	defer d.tailMu.Unlock()
	return strings.Join(d.tail, "\n")
}

// minUptime is how long a daemon must have been listening before it is
// sent SIGTERM: the program installs its signal handler after it logs
// "listening on", and a SIGTERM that lands in between kills it without the
// drain and checkpoint (seen on hot_small, whose restart check takes 8 ms).
const minUptime = 200 * time.Millisecond

// terminate sends SIGTERM (the graceful drain + checkpoint path) and
// waits for the exit, returning how long it took.
func (d *daemon) terminate() (time.Duration, error) {
	if up := time.Since(d.listening); up < minUptime {
		time.Sleep(minUptime - up)
	}
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, err
	}
	select {
	case <-d.exited:
		if !d.cmd.ProcessState.Success() {
			return time.Since(start), fmt.Errorf("daemon exited uncleanly (%v):\n%s", d.cmd.ProcessState, d.stderrTail())
		}
		return time.Since(start), nil
	case <-time.After(daemonStopTimeout):
		d.kill()
		return time.Since(start), fmt.Errorf("daemon ignored SIGTERM for %v", daemonStopTimeout)
	}
}

// kill ends the daemon immediately and waits until it is reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
}

// healthy checks that /healthz answers "ok".
func (d *daemon) healthy() error {
	r, err := oneShot(d.addr, "GET", "/healthz", nil)
	if err != nil {
		return err
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(r.body, &h); err != nil || h.Status != "ok" {
		return fmt.Errorf("healthz: body %q", r.body)
	}
	return nil
}

// procSample is one reading of the daemon's /proc counters.
type procSample struct {
	userTicks, sysTicks int64 // USER_HZ ticks
	// cpuNs is the on-CPU time of the daemon's threads from their
	// schedstat files: the same quantity as the ticks, in nanoseconds
	// instead of 10 ms steps.
	cpuNs        int64
	rssKB, hwmKB int64
}

// userHZ is the kernel's clock-tick unit for /proc/<pid>/stat; it is 100
// on every Linux ABI Go runs on.
const userHZ = 100

func (s procSample) cpuMicros() (user, sys float64) {
	return float64(s.userTicks) * 1e6 / userHZ, float64(s.sysTicks) * 1e6 / userHZ
}

// sample reads utime/stime from /proc/<pid>/stat, on-CPU nanoseconds from
// /proc/<pid>/task/*/schedstat and VmRSS/VmHWM from /proc/<pid>/status.
func (d *daemon) sample() (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the ") ".
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := bytes.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc stat: %q", stat)
	}
	if s.userTicks, err = strconv.ParseInt(string(f[11]), 10, 64); err != nil {
		return s, err
	}
	if s.sysTicks, err = strconv.ParseInt(string(f[12]), 10, 64); err != nil {
		return s, err
	}
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.pid))
	if err != nil {
		return s, err
	}
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		if f := bytes.Fields(b); len(f) > 0 {
			ns, _ := strconv.ParseInt(string(f[0]), 10, 64)
			s.cpuNs += ns
		}
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		fields := strings.Fields(val)
		if len(fields) == 0 {
			continue
		}
		switch key {
		case "VmRSS":
			s.rssKB, _ = strconv.ParseInt(fields[0], 10, 64)
		case "VmHWM":
			s.hwmKB, _ = strconv.ParseInt(fields[0], 10, 64)
		}
	}
	return s, nil
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
