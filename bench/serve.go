package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"roadnet"
)

// connections is the number of persistent connections the load generator
// keeps, each with one request in flight: a closed loop. It is fixed at
// the core count of the box the benchmark was sized on, which the client
// and the server share.
const connections = 2

// window is the length of the slices the measured phase is cut into.
// Latency percentiles, throughput and the reference (calib.go) are taken
// per window, each window's numbers are brought to the nominal speed
// by its own reference, and the median window is reported.
const window = time.Second

// refEvery is how often a connection interrupts its requests for one sweep
// of the reference (calib.go), each connection for itself with a kernel of
// its own: about a tenth of a window goes to the reference whatever the
// requests cost, and the reference runs under the conditions the requests
// run under, next to the other connection's requests and a few milliseconds
// from its own. That is what makes it follow them.
const refEvery = 4 * time.Millisecond

// buildSpserve compiles cmd/spserve of the repository at root into outDir.
func buildSpserve(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "spserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/spserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building spserve: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one running spserve.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	log  bytes.Buffer
	// exited is closed once the process has been waited for.
	exited  chan struct{}
	waitErr error
}

// startServer boots spserve on the workload's preset with its three cache
// files in dir, and returns once /readyz answers 200, with the time that
// took. With an empty dir that is a first boot: generate, build, save,
// bulk-load the R-tree, listen. With the files present it is a restart.
func startServer(bin, preset, dir string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	p := &serverProc{addr: "127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	p.cmd = exec.Command(bin,
		"-preset", preset, "-method", "ch", "-addr", p.addr,
		"-index", filepath.Join(dir, "ch.idx"),
		"-graph", filepath.Join(dir, "graph.bin"),
		"-rtree", filepath.Join(dir, "rtree.bin"))
	p.cmd.Stdout, p.cmd.Stderr = &p.log, &p.log
	// Should this process die without reaching stop, by a signal or a kill,
	// the kernel takes the server down with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()

	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for time.Since(start) < 2*time.Minute {
		select {
		case <-p.exited:
			return nil, 0, fmt.Errorf("spserve exited before it was ready: %v\n%s", p.waitErr, p.log.String())
		default:
		}
		resp, err := client.Get("http://" + p.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.stop()
	return nil, 0, fmt.Errorf("spserve was not ready after two minutes\n%s", p.log.String())
}

// stop asks the server to drain and waits until the process has ended,
// killing it if it has not gone after ten seconds. It is safe to call twice.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an error means it has already exited
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// conn is one persistent HTTP/1.1 connection driven synchronously: write a
// request, read its response. It does without net/http's client machinery
// (two goroutines and a channel hand-off per round trip) because the client
// shares two cores with the server it is measuring.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// wire renders the request as it goes over the socket.
func (r *request) wire(host string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: %s\r\n", r.Method, r.Path, host)
	if r.Method == "POST" {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(r.Body))
	}
	b.WriteString("\r\n")
	b.WriteString(r.Body)
	return b.Bytes()
}

// do sends one request and returns the status and the body, which is valid
// until the next call.
func (c *conn) do(wire []byte) (int, []byte, error) {
	if _, err := c.c.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// checkResponse decodes a response body and compares it, field by field,
// with what the oracle says the request's answer is.
func checkResponse(g *roadnet.Graph, r *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.Method, r.Path, status, body)
	}
	switch r.Kind {
	case kindDistance:
		var got distanceBody
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s: %v", r.Path, err)
		}
		return checkDistanceBody(got, r.S, r.T, r.WantDist)
	case kindRoute:
		var got routeBody
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s: %v", r.Path, err)
		}
		return checkRouteBody(g, got, r.S, r.T, r.WantDist)
	default:
		var got batchBody
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s: %v", r.Path, err)
		}
		return checkBatchBody(got, r.Sources, r.Targets, r.WantMatrix)
	}
}

// target is a request list bound to a server: the wire form of each
// request, and the bytes of its answer once that answer has passed the
// full check. A later answer with the same bytes is right for the same
// reason; one with other bytes is decoded and checked again.
type target struct {
	g        *roadnet.Graph
	addr     string
	reqs     []request
	wires    [][]byte
	verified [][]byte
}

func newTarget(g *roadnet.Graph, addr string, reqs []request) *target {
	t := &target{g: g, addr: addr, reqs: reqs, wires: make([][]byte, len(reqs)), verified: make([][]byte, len(reqs))}
	for i := range reqs {
		t.wires[i] = reqs[i].wire(addr)
	}
	return t
}

// connError is a failure of the connection itself, after which answers can
// no longer be matched to requests on it.
type connError struct{ error }

// roundTrip sends request i on c and checks the answer.
func (t *target) roundTrip(c *conn, i int) error {
	status, body, err := c.do(t.wires[i])
	if err != nil {
		return connError{err}
	}
	if t.verified[i] != nil && status == http.StatusOK && bytes.Equal(body, t.verified[i]) {
		return nil
	}
	if err := checkResponse(t.g, &t.reqs[i], status, body); err != nil {
		return err
	}
	t.verified[i] = append([]byte(nil), body...)
	return nil
}

// sample is one completed request: when it completed, counted from the
// start of the phase, and how long it took. ref marks a sweep of the
// reference.
type sample struct {
	at, latency time.Duration
	ref         bool
}

// loadPhase is what a closed-loop phase measured.
type loadPhase struct {
	elapsed   time.Duration
	samples   []sample
	tally     tally
	serverCPU time.Duration
	clientCPU time.Duration
}

// drive runs the closed loop: every connection sends its share of the
// request list (request i belongs to connection i mod connections), one
// request at a time, around and around until the phase is over. With
// laps > 0 the phase ends after that many passes over the list instead of
// after d; the first phase of a run uses that to check and warm every
// distinct request once. With withRef every connection interleaves sweeps
// of the reference.
func (t *target) drive(d time.Duration, laps int, serverPID int, withRef bool) (*loadPhase, error) {
	conns := make([]*conn, connections)
	refs := make([]*refKernel, connections)
	for k := range conns {
		c, err := dial(t.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[k] = c
		if withRef {
			refs[k] = newRefKernel()
		}
	}
	cpu0, _ := processCPU(serverPID)
	self0 := selfCPU()

	perConn := make([][]sample, connections)
	tallies := make([]tally, connections)
	errs := make([]error, connections)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range conns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			perConn[k], errs[k] = t.driveConn(conns[k], refs[k], k, start, d, laps, &tallies[k])
		}(k)
	}
	wg.Wait()
	ph := &loadPhase{elapsed: time.Since(start)}
	cpu1, _ := processCPU(serverPID)
	ph.serverCPU, ph.clientCPU = cpu1-cpu0, selfCPU()-self0
	for k := range conns {
		if errs[k] != nil {
			return nil, fmt.Errorf("connection %d: %w", k, errs[k])
		}
		ph.samples = append(ph.samples, perConn[k]...)
		ph.tally.merge(tallies[k])
	}
	return ph, nil
}

// driveConn is one connection's part of drive. It stops early, with the
// error, when the connection itself fails.
func (t *target) driveConn(c *conn, ref *refKernel, k int, start time.Time, d time.Duration, laps int, tl *tally) ([]sample, error) {
	samples := make([]sample, 0, 1<<16)
	lastRef := start
	for lap := 0; laps == 0 || lap < laps; lap++ {
		for i := k; i < len(t.reqs); i += connections {
			if laps == 0 && time.Since(start) >= d {
				return samples, nil
			}
			t0 := time.Now()
			if ref != nil && t0.Sub(lastRef) >= refEvery {
				ref.sweep()
				t1 := time.Now()
				samples = append(samples, sample{t1.Sub(start), t1.Sub(t0), true})
				t0, lastRef = t1, t1
			}
			err := t.roundTrip(c, i)
			t1 := time.Now()
			tl.check(err)
			samples = append(samples, sample{at: t1.Sub(start), latency: t1.Sub(t0)})
			if errors.As(err, new(connError)) {
				return samples, err
			}
		}
	}
	return samples, nil
}

// windowStats are the latency percentiles of one slice of a phase, as
// measured. qps counts requests against the time the connections had for
// them: the slice's length less what the sweeps of the reference took.
type windowStats struct {
	n        int
	p50, p99 time.Duration
	qps      float64
	// refP50 is the median sweep of the reference in the slice, 0 if it had none.
	refP50 time.Duration
}

// byWindow cuts the phase into slices of the given width by completion
// time; a last slice shorter than half the width joins the one before.
func (ph *loadPhase) byWindow(width time.Duration) []windowStats {
	n := int((ph.elapsed + width/2) / width)
	if n < 1 {
		n = 1
	}
	lat := make([][]int64, n)
	ref := make([][]int64, n)
	for _, s := range ph.samples {
		w := int(s.at / width)
		if w >= n {
			w = n - 1
		}
		if s.ref {
			ref[w] = append(ref[w], int64(s.latency))
		} else {
			lat[w] = append(lat[w], int64(s.latency))
		}
	}
	out := make([]windowStats, n)
	for w, l := range lat {
		slices.Sort(l)
		slices.Sort(ref[w])
		span := width
		if w == n-1 {
			span = ph.elapsed - time.Duration(n-1)*width
		}
		var refTime int64
		for _, r := range ref[w] {
			refTime += r
		}
		busy := span.Seconds() - time.Duration(refTime).Seconds()/connections
		out[w] = windowStats{
			n:      len(l),
			p50:    time.Duration(durationQuantile(l, 0.50)),
			p99:    time.Duration(durationQuantile(l, 0.99)),
			qps:    float64(len(l)) / busy,
			refP50: time.Duration(durationQuantile(ref[w], 0.50)),
		}
	}
	return out
}

// serveContext is what a serve_* run holds between its steps.
type serveContext struct {
	w    workload
	opt  runOptions
	dir  string // the server's cache directory
	g    *roadnet.Graph
	loc  *roadnet.SpatialLocator
	reqs []request
	proc *serverProc
	tgt  *target
}

func runServe(w workload, opt runOptions) (*result, error) {
	res := newResult()
	runDir, err := os.MkdirTemp(opt.OutDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set-up: first boots from an empty cache directory, each in its own.
	sc := &serveContext{w: w, opt: opt}
	setups := w.Setups
	if opt.Trace {
		setups = 1
	}
	var boots []float64
	for i := 0; i < setups; i++ {
		sc.dir = filepath.Join(runDir, "cache-"+strconv.Itoa(i))
		if err := os.Mkdir(sc.dir, 0o755); err != nil {
			return nil, err
		}
		proc, ready, err := startServer(opt.Spserve, w.Preset, sc.dir)
		if err != nil {
			return nil, err
		}
		proc.stop()
		boots = append(boots, ready.Seconds())
	}
	res.set("setup_s", median(boots))
	res.set("spserve.first_boot_s", median(boots))

	// The server under load is a restart from the files the last first
	// boot saved: mapped, checksums verified, as an operator would run it.
	proc, ready, err := startServer(opt.Spserve, w.Preset, sc.dir)
	if err != nil {
		return nil, err
	}
	sc.proc = proc
	defer proc.stop()
	res.set("spserve.restart_ready_ms", ms(ready))
	if st, err := os.Stat(filepath.Join(sc.dir, "ch.idx")); err == nil {
		res.set("spserve.index_file_mb", float64(st.Size())/(1<<20))
	}

	// Inputs from the seed, and the oracle's answers. Untimed.
	t0 := time.Now()
	if sc.g, err = roadnet.GeneratePreset(w.Preset); err != nil {
		return nil, err
	}
	res.set("gen.generate_ms", ms(time.Since(t0)))
	t0 = time.Now()
	sc.loc = roadnet.NewSpatialLocator(sc.g)
	res.set("rtree.build_ms", ms(time.Since(t0)))
	t0 = time.Now()
	ts, err := newTrafficSource(sc.g, sc.loc.Tree())
	if err != nil {
		return nil, err
	}
	res.set("workload.linf_sets_ms", ms(time.Since(t0)))
	switch w.Kind {
	case kindDistance:
		sc.reqs = ts.distanceTraffic(opt.Seed, w.Requests)
	case kindRoute:
		sc.reqs = ts.routeTraffic(opt.Seed, w.Requests)
	default:
		sc.reqs = ts.batchTraffic(opt.Seed, w.Requests)
	}
	fillExpected(sc.g, sc.reqs, runtime.GOMAXPROCS(0))
	sc.tgt = newTarget(sc.g, proc.addr, sc.reqs)

	// One lap over the list checks every distinct request in full and
	// warms the server and the reference; it is not measured.
	warm, err := sc.tgt.drive(0, 1, proc.cmd.Process.Pid, true)
	if err != nil {
		return nil, err
	}
	res.tally.merge(warm.tally)

	if opt.Trace {
		if err := sc.traced(res); err != nil {
			return nil, err
		}
		return res, nil
	}

	ph, err := sc.tgt.drive(time.Duration(opt.Seconds*float64(time.Second)), 0, proc.cmd.Process.Pid, true)
	if err != nil {
		return nil, err
	}
	res.tally.merge(ph.tally)
	if err := sc.report(res, ph); err != nil {
		return nil, err
	}
	return res, nil
}

// report turns a measured phase into the end-to-end metrics: every
// window's numbers at the nominal speed, and the median window of each.
func (sc *serveContext) report(res *result, ph *loadPhase) error {
	var p50s, p99s, qps, rawP50s, rawP99s, rawQPS, refs []float64
	requests := 0
	for i, w := range ph.byWindow(window) {
		requests += w.n
		if w.n == 0 || w.refP50 == 0 {
			res.notef("window %2d: %6d requests and no reference, left out", i, w.n)
			continue
		}
		// k brings the window's times to the nominal speed of the box: it
		// is under 1 when the window ran on a slow stretch.
		k := nominalSweepUs / us(w.refP50)
		p50s = append(p50s, us(w.p50)*k)
		p99s = append(p99s, us(w.p99)*k)
		qps = append(qps, w.qps/k)
		rawP50s, rawP99s, rawQPS, refs = append(rawP50s, us(w.p50)), append(rawP99s, us(w.p99)), append(rawQPS, w.qps), append(refs, us(w.refP50))
		res.notef("window %2d: %6d requests, as measured p50 %8.1f us, p99 %8.1f us, %8.0f 1/s, reference %6.1f us; at nominal speed p50 %8.1f us, p99 %8.1f us, %8.0f 1/s",
			i, w.n, us(w.p50), us(w.p99), w.qps, us(w.refP50), us(w.p50)*k, us(w.p99)*k, w.qps/k)
	}
	if len(p50s) == 0 {
		return fmt.Errorf("no window of the measured phase has both requests and sweeps of the reference")
	}
	res.set("query_us", median(p50s))
	res.set("query_tail_us", median(p99s))
	res.set("throughput_qps", median(qps))
	res.notef("closed loop, %d connections, %d requests in %.2f s over %d distinct requests", connections, requests, ph.elapsed.Seconds(), len(sc.reqs))
	res.notef("as measured (median window): query_us %.2f, query_tail_us %.2f, throughput_qps %.1f; reference %.2f us, nominal %.0f",
		median(rawP50s), median(rawP99s), median(rawQPS), median(refs), nominalSweepUs)
	return nil
}
