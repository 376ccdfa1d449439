//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"dsmc"
	"dsmc/internal/obs"
)

// dsmcdChild is a cmd/dsmcd subprocess on a free loopback port with a
// data directory of its own. stop terminates it, waits for it and
// removes the directory; no process or directory survives a run, also
// when the harness fails or is signalled (the command is bound to the
// run's context, and the kernel kills the child if the harness dies).
type dsmcdChild struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	dir    string
	log    *os.File
	client *http.Client
}

func startDsmcd(e *env) (*dsmcdChild, error) {
	dir, err := os.MkdirTemp(e.scratch, "dsmcd-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logFile, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(e.ctx, e.dsmcd, "-addr", addr, "-data", dir, "-pool", strconv.Itoa(e.nproc))
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting dsmcd: %w", err)
	}
	d := &dsmcdChild{cmd: cmd, base: "http://" + addr, dir: dir, log: logFile, client: &http.Client{}}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || e.ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("dsmcd on %s never became healthy: %v", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the child (killing it after ten
// seconds) and removes its data directory and log.
func (d *dsmcdChild) stop() error {
	if d.cmd == nil {
		return nil
	}
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		err = <-done
	}
	d.cmd = nil
	d.log.Close()
	os.Remove(d.log.Name())
	if rmErr := os.RemoveAll(d.dir); rmErr != nil {
		return rmErr
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) && !exit.Exited() {
		return nil // ended by our own signal before its handler was installed
	}
	return err
}

// sweepCall is one sweep through the HTTP API as its client sees it.
type sweepCall struct {
	wall          float64 // POST sent to the last byte of the last response
	submit        float64 // POST /v1/sweeps to the 202
	firstDispatch float64 // 202 to the first job-started event
	jobs          float64 // first job-started to the last job-done event
	tail          float64 // last job-done to the end of the event stream: the result is servable
	fetch         float64 // GET /result to its last byte
	revalidate    float64 // GET /result with If-None-Match to the 304 (warm ops)
	quantity      float64 // GET /result?quantity=temperature to its last byte (warm ops)
	bytes         int     // size of the /result body
	body          []byte
	etag          string
}

// get issues one GET and reads the whole body; any status but want is an
// error, which fails the op.
func (d *dsmcdChild) get(url, ifNoneMatch string, want int) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, "", err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != want {
		return nil, "", fmt.Errorf("GET %s: status %d, want %d: %.200s", url, resp.StatusCode, want, body)
	}
	return body, resp.Header.Get("ETag"), nil
}

// sweep submits spec and follows it to its result: POST /v1/sweeps,
// the NDJSON event stream to its end, GET /result and, for a warm op,
// the conditional GET and the single-quantity view. Spans are placed
// from the client's clock as responses and event lines arrive.
func (d *dsmcdChild) sweep(spec dsmc.SweepSpec, warm bool, tr *tracer) (*sweepCall, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	c := &sweepCall{}
	root := tr.begin(-1, "bench", "sweep")
	defer tr.end(root)
	t0 := time.Now()

	id := tr.begin(root, "dsmcd", "submit")
	resp, err := d.client.Post(d.base+"/v1/sweeps", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(id)
	accepted := time.Now()
	c.submit = accepted.Sub(t0).Seconds()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST /v1/sweeps: status %d, want 202: %.200s", resp.StatusCode, raw)
	}
	var links struct{ Events, Result string }
	if err := json.Unmarshal(raw, &links); err != nil {
		return nil, err
	}

	stream := tr.add(root, "dsmcd", "events", accepted, time.Time{})
	resp, err = d.client.Get(d.base + links.Events)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: status %d, want 200", links.Events, resp.StatusCode)
	}
	var firstStart, lastDone time.Time
	open := map[string]int{}
	lines := bufio.NewReader(resp.Body)
	for {
		line, err := lines.ReadBytes('\n')
		if len(line) > 1 {
			var ev dsmc.SweepEvent
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				resp.Body.Close()
				return nil, fmt.Errorf("event stream: %w", jerr)
			}
			now := time.Now()
			switch ev.Type {
			case "job-started":
				if firstStart.IsZero() {
					firstStart = now
					tr.add(stream, "coord", "first-dispatch", accepted, now)
				}
				open[ev.Job] = tr.add(stream, "coord", "job", now, time.Time{})
			case "job-done", "aggregate-done":
				lastDone = now
				if sid, ok := open[ev.Job]; ok && tr != nil {
					tr.end(sid)
					delete(open, ev.Job)
				}
			case "job-failed", "job-skipped":
				resp.Body.Close()
				return nil, fmt.Errorf("sweep %s: %s %s: %s", links.Result, ev.Type, ev.Job, ev.Err)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("event stream: %w", err)
		}
	}
	resp.Body.Close()
	streamEnd := time.Now()
	if firstStart.IsZero() || lastDone.IsZero() {
		return nil, errors.New("event stream ended without a started and a finished job")
	}
	tr.add(stream, "coord", "tail", lastDone, streamEnd)
	tr.end(stream)
	c.firstDispatch = firstStart.Sub(accepted).Seconds()
	c.jobs = lastDone.Sub(firstStart).Seconds()
	c.tail = streamEnd.Sub(lastDone).Seconds()

	id = tr.begin(root, "dsmcd", "result")
	t := time.Now()
	c.body, c.etag, err = d.get(d.base+links.Result, "", http.StatusOK)
	tr.end(id)
	c.fetch = time.Since(t).Seconds()
	c.bytes = len(c.body)
	if err != nil {
		return nil, err
	}
	if warm {
		id = tr.begin(root, "dsmcd", "result-304")
		t = time.Now()
		_, _, err = d.get(d.base+links.Result, c.etag, http.StatusNotModified)
		tr.end(id)
		c.revalidate = time.Since(t).Seconds()
		if err != nil {
			return nil, err
		}
		id = tr.begin(root, "dsmcd", "result-quantity")
		t = time.Now()
		_, _, err = d.get(d.base+links.Result+"?quantity=temperature", "", http.StatusOK)
		tr.end(id)
		c.quantity = time.Since(t).Seconds()
		if err != nil {
			return nil, err
		}
	}
	c.wall = time.Since(t0).Seconds()
	return c, nil
}

// dsmcdInst is a dsmcd child driven by one closed-loop client. Cold, it
// receives the cold spec family of sweep-inproc-cold; warm, it re-serves
// the sweeps its set-up computed.
type dsmcdInst struct {
	e     *env
	d     *dsmcdChild
	warm  bool
	etags []string     // warm: each distinct sweep's ETag when it was computed
	first []byte       // the served body the gate compares with an in-process run
	calls []*sweepCall // traced ops
}

func setupDsmcd(e *env, tr *tracer, warm bool) (instance, error) {
	d, err := startDsmcd(e)
	if err != nil {
		return nil, err
	}
	s := &dsmcdInst{e: e, d: d, warm: warm}
	primes := 1
	if warm {
		primes = e.sz.warmSpecs
	}
	for k := 0; k < primes; k++ {
		spec, err := s.spec(k)
		if err == nil {
			var c *sweepCall
			if c, err = d.sweep(spec, false, nil); err == nil {
				s.etags = append(s.etags, c.etag)
			}
		}
		if err != nil {
			d.stop()
			return nil, err
		}
	}
	return s, nil
}

// spec is sweep k of the instance's family: the cold family, or for the
// warm workload the same sweeps at primeSteps steps.
func (s *dsmcdInst) spec(k int) (dsmc.SweepSpec, error) {
	if s.warm {
		return s.e.sweepSpec(k, s.e.sz.primeSteps, s.e.sz.primeSteps)
	}
	return s.e.coldSpec(k)
}

// op is one sweep from POST to the last byte of the last response. A
// cold op submits a sweep the server has never seen; a warm op cycles
// the sweeps computed in set-up, and the result's ETag must equal the
// one served when the sweep was computed.
func (s *dsmcdInst) op(i int, tr *tracer) (wall, scale float64, err error) {
	k := i + 1
	if s.warm {
		k = i % s.e.sz.warmSpecs
	}
	spec, err := s.spec(k)
	if err != nil {
		return 0, 0, err
	}
	c, err := s.d.sweep(spec, s.warm, tr)
	if err != nil {
		return 0, 0, err
	}
	if s.warm && c.etag != s.etags[k] {
		return 0, 0, fmt.Errorf("warm sweep %d: ETag %s, computed cold as %s", k, c.etag, s.etags[k])
	}
	if s.first == nil && (s.warm || k == 1) {
		s.first = c.body
	}
	if tr != nil {
		c.body = nil
		s.calls = append(s.calls, c)
	}
	return c.wall, 1, nil
}

func (s *dsmcdInst) pid() int { return s.d.cmd.Process.Pid }

func (s *dsmcdInst) scrape() (map[string]float64, error) {
	resp, err := s.d.client.Get(s.d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return obs.ParseText(resp.Body)
}

// check runs the first measured sweep's spec in process and requires the
// body dsmcd served for it to be the same bytes.
func (s *dsmcdInst) check() error {
	k := 1
	if s.warm {
		k = 0
	}
	spec, err := s.spec(k)
	if err != nil {
		return err
	}
	res, err := dsmc.RunSweep(s.e.ctx, spec, nil)
	if err != nil {
		return err
	}
	want, err := resultJSON(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(s.first, want) {
		return fmt.Errorf("dsmcd served %d bytes for sweep %d, the in-process result is %d bytes and differs", len(s.first), k, len(want))
	}
	return nil
}

func (s *dsmcdInst) close() error { return s.d.stop() }
