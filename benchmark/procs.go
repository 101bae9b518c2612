package main

// Child processes: the CLI runs of the batch workloads and the daemons the
// serve and stream workloads talk to. Every process started
// here is stopped and waited for before the benchmark exits, including
// when it exits on an error or a signal.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children is the set of processes that are running.
var children = struct {
	sync.Mutex
	set map[*exec.Cmd]bool
}{set: map[*exec.Cmd]bool{}}

func track(c *exec.Cmd)   { children.Lock(); children.set[c] = true; children.Unlock() }
func untrack(c *exec.Cmd) { children.Lock(); delete(children.set, c); children.Unlock() }

// killChildren kills every child still running — on the signal path, or
// as a safety net where the normal stop sequence did not run — and returns
// once their owners have reaped them.
func killChildren() {
	children.Lock()
	for c := range children.set {
		c.Process.Kill()
	}
	children.Unlock()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		children.Lock()
		n := len(children.set)
		children.Unlock()
		if n == 0 {
			return
		}
	}
}

// command builds a child process that dies with the benchmark if the
// benchmark is killed outright.
func command(bin string, args ...string) *exec.Cmd {
	c := exec.Command(bin, args...)
	c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return c
}

// cliResult is one finished CLI process.
type cliResult struct {
	stdout string
	exit   int
	wall   time.Duration
	rssMiB float64 // peak resident set size
}

// runCLI runs the aerodrome CLI to completion. Exit codes 0 and 1 are
// verdicts; anything else is an error.
//
// The peak resident set is read from the child's own VmHWM while it runs:
// its ru_maxrss would include the benchmark's, because a child shares its
// parent's memory map between fork and exec.
func runCLI(bin string, args ...string) (cliResult, error) {
	c := command(bin, args...)
	var out, errb bytes.Buffer
	c.Stdout, c.Stderr = &out, &errb
	start := time.Now()
	if err := c.Start(); err != nil {
		return cliResult{}, err
	}
	track(c)
	done := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		hwm := 0.0
		for {
			if v, err := vmHWM(c.Process.Pid); err == nil {
				hwm = max(hwm, v)
			}
			select {
			case <-done:
				peak <- hwm
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	err := c.Wait()
	wall := time.Since(start)
	close(done)
	untrack(c)
	res := cliResult{stdout: out.String(), exit: c.ProcessState.ExitCode(), wall: wall, rssMiB: <-peak}
	if res.exit != 0 && res.exit != 1 {
		return res, fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return res, nil
}

// daemon is one running aerodromed process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// startDaemon starts aerodromed on a free loopback port and returns once it
// has announced its address (it may not answer yet; see waitHealthy).
func startDaemon(bin string, args ...string) (*daemon, error) {
	c := command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	lw := &logWatch{addr: make(chan string, 1)}
	c.Stderr = lw
	if err := c.Start(); err != nil {
		return nil, err
	}
	track(c)
	d := &daemon{cmd: c, exited: make(chan struct{})}
	go func() {
		c.Wait()
		untrack(c)
		close(d.exited)
	}()
	select {
	case addr := <-lw.addr:
		d.url = "http://" + addr
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("aerodromed exited at start-up: %s", lw.tail())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("aerodromed did not announce its address within 30s")
	}
}

// stop drains the daemon with SIGTERM and waits for it, killing it if the
// drain takes longer than its own shutdown deadline.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSS reads the daemon's peak resident set in MiB.
func (d *daemon) peakRSS() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// vmHWM reads a process's VmHWM (peak resident set of its current memory
// map) in MiB.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// logWatch consumes a daemon's log, picking out the listen address and
// keeping the last lines for error messages.
type logWatch struct {
	mu    sync.Mutex
	part  []byte
	last  []string
	addr  chan string
	found bool
}

func (w *logWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.part = append(w.part, p...)
	for {
		i := bytes.IndexByte(w.part, '\n')
		if i < 0 {
			break
		}
		line := string(w.part[:i])
		w.part = w.part[i+1:]
		if !w.found {
			if m := listenRe.FindStringSubmatch(line); m != nil {
				w.found = true
				w.addr <- m[1]
			}
		}
		w.last = append(w.last, line)
		if len(w.last) > 8 {
			w.last = w.last[1:]
		}
	}
	return len(p), nil
}

func (w *logWatch) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Join(w.last, " | ")
}

// control is the client for health probes and metric scrapes; it never
// shares a connection with the measured load.
var control = &http.Client{Timeout: 10 * time.Second}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(url string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		resp, err := control.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s/healthz not ready after %v", url, timeout)
		case <-time.After(time.Millisecond):
		}
	}
}

// scrapeProm reads a daemon's Prometheus exposition into a map keyed by
// the series as printed (name plus label set).
func scrapeProm(url string) (map[string]float64, error) {
	resp, err := control.Get(url + "/metrics?format=prom")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: HTTP %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeSum scrapes every daemon and adds up each series.
func scrapeSum(urls ...string) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, u := range urls {
		m, err := scrapeProm(u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// selectedEngine names the engine a daemon reports having selected most.
func selectedEngine(url string) (string, error) {
	resp, err := control.Get(url + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var snap struct {
		EngineSelections map[string]int64 `json:"engine_selections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return "", fmt.Errorf("%s/metrics: %w", url, err)
	}
	best, n := "", int64(0)
	for name, c := range snap.EngineSelections {
		if c > n || (c == n && name < best) {
			best, n = name, c
		}
	}
	if best == "" {
		return "", fmt.Errorf("%s/metrics: no engine selected yet", url)
	}
	return best, nil
}
