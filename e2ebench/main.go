// Command e2ebench is the repository's end-to-end benchmark. It starts
// the system under test — an origin and one Dynamic Proxy Cache over
// loopback TCP, in a child process — and drives one named, seeded
// workload against it from this process, checking every response:
//
//	bash e2ebench/run.sh --workload registered-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced
// window. With --trace 1 it wraps each layer's public interface in
// timing decorators and reports the per-layer metrics of a traced
// window, reconciled against the client-observed latency, plus the
// tracing overhead against an untraced reference window. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --manifest PATH writes BENCHMARK.json from the definitions in spec.go.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if os.Getenv(roleEnv) == "sut" {
		if err := runSUT(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench sut:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// options are the benchmark's command-line arguments.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	WorkDir  string
	// CorruptEvery makes the SUT corrupt every Nth response (self-test).
	CorruptEvery int
	// SetupLaunches is how many times the SUT is started to measure
	// setup_s; the last one serves the run.
	SetupLaunches int
	// Warmup is the traffic run between the fill sweep and the window.
	Warmup time.Duration
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o options
	var trace int
	manifestPath := fs.String("manifest", "", "write BENCHMARK.json to this path and exit")
	fs.StringVar(&o.Workload, "workload", "", "workload name")
	fs.Int64Var(&o.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.Seconds, "seconds", runSeconds, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.WorkDir, "workdir", ".bench_build/e2ebench", "directory for heap files, spans and SUT logs")
	fs.IntVar(&o.CorruptEvery, "corrupt-every", 0, "self-test: the SUT corrupts every Nth response")
	fs.IntVar(&o.SetupLaunches, "setup-launches", 9, "SUT launches measured for setup_s")
	fs.DurationVar(&o.Warmup, "warmup", 2*time.Second, "warm-up traffic before the measured window")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifestPath != "" {
		if err := writeManifest(*manifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	o.Trace = trace == 1
	res, err := runBench(o, stdout)
	if err != nil { // nothing was measured
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	// A run that measured something exits 0 even when the program failed
	// its checks: the result's "correct" and "failed" report that.
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sutProc is one running SUT child process.
type sutProc struct {
	cmd     *exec.Cmd
	proxy   string
	control string
	logPath string
	waited  chan struct{}
}

// startSUT launches the SUT and returns once it is ready to serve,
// with the time that took.
func startSUT(o options, heap string, layers bool) (*sutProc, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-heap", heap}
	if layers {
		args = append(args, "-layers")
	}
	if o.CorruptEvery > 0 {
		args = append(args, "-corrupt-every", fmt.Sprint(o.CorruptEvery))
	}
	logPath := filepath.Join(o.WorkDir, fmt.Sprintf("sut-%s-%d.log", o.Workload, o.Seed))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), roleEnv+"=sut", "GOTRACEBACK=all")
	cmd.Stderr = logf
	// The SUT must not outlive the load generator.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &sutProc{cmd: cmd, logPath: logPath, waited: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if !sc.Scan() {
			ready <- fmt.Errorf("SUT exited before it was ready (see %s)", logPath)
			return
		}
		var tag string
		if _, err := fmt.Sscan(sc.Text(), &tag, &p.proxy, &p.control); err != nil || tag != "READY" {
			ready <- fmt.Errorf("SUT printed %q instead of READY", sc.Text())
			return
		}
		ready <- nil
		_, _ = io.Copy(io.Discard, out)
	}()
	go func() {
		_ = cmd.Wait()
		close(p.waited)
	}()
	select {
	case err = <-ready:
	case <-time.After(60 * time.Second):
		err = fmt.Errorf("SUT not ready after 60s")
	}
	elapsed := time.Since(t0)
	if err != nil {
		p.stop()
		return nil, 0, err
	}
	return p, elapsed, nil
}

// stop kills the SUT and waits until it has exited.
func (p *sutProc) stop() {
	_ = p.cmd.Process.Kill()
	<-p.waited
}

// dumpAndStop asks the Go runtime in the SUT to print every goroutine's
// stack to its log (SIGQUIT), then makes sure it has exited.
func (p *sutProc) dumpAndStop() {
	_ = p.cmd.Process.Signal(syscall.SIGQUIT)
	select {
	case <-p.waited:
	case <-time.After(5 * time.Second):
		p.stop()
	}
}

func (p *sutProc) post(path string) error {
	c := &http.Client{Timeout: 60 * time.Second}
	resp, err := c.Post("http://"+p.control+path, "", nil)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

func (p *sutProc) snapshot() (snapshot, error) {
	var s snapshot
	c := &http.Client{Timeout: 30 * time.Second}
	resp, err := c.Get("http://" + p.control + "/snapshot")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /snapshot: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// clientConns is both the load generator's connection count to the
// proxy and its GOMAXPROCS: at most the machine's CPU count.
func clientConns() int {
	return min(runtime.NumCPU(), maxConns)
}

func runBench(o options, stdout io.Writer) (*result, error) {
	w, err := workloadByName(o.Workload)
	if err != nil {
		return nil, err
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(clientConns())
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return nil, err
	}
	heap := filepath.Join(o.WorkDir, "fragments.heap")
	defer os.Remove(heap)

	// Set-up: launch the SUT several times and report the median launch-
	// to-ready time; the last launch serves the run.
	var (
		proc   *sutProc
		setups []int64
	)
	for i := 0; i < max(1, o.SetupLaunches); i++ {
		p, d, err := startSUT(o, heap, o.Trace)
		if err != nil {
			return nil, err
		}
		setups = append(setups, int64(d))
		if proc != nil {
			proc.stop()
		}
		proc = p
	}
	defer proc.stop()

	// The run's deadline: past it the SUT dumps its goroutines and is
	// killed, so a hang shows as failed requests plus a named seed.
	windows := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		windows += windows / 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second+o.Warmup+windows)
	defer cancel()
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		select {
		case <-ctx.Done():
			if ctx.Err() == context.DeadlineExceeded {
				fmt.Fprintf(os.Stderr, "e2ebench: workload %s seed %d passed its deadline; SUT goroutines dumped to %s\n",
					w.Name, o.Seed, proc.logPath)
				proc.dumpAndStop()
			}
		case <-proc.waited:
		}
	}()
	defer func() { cancel(); <-watched }()

	lg, err := newLoadgen(w, proc.proxy, proc.control)
	if err != nil {
		return nil, err
	}
	defer lg.ctrl.CloseIdleConnections()
	rep := &report{w: w, seed: o.Seed, setups: setups}
	if err := rep.drive(ctx, proc, lg, o); err != nil {
		// The SUT stopped answering: keep its goroutines for diagnosis and
		// report the run as failed under its seed.
		proc.dumpAndStop()
		return rep.failed(fmt.Sprintf("workload %s seed %d: %v; SUT goroutines dumped to %s", w.Name, o.Seed, err, proc.logPath), stdout), nil
	}
	if ctx.Err() != nil {
		rep.problems = append(rep.problems, fmt.Sprintf("run passed its deadline (workload %s, seed %d)", w.Name, o.Seed))
	}
	return rep.finish(o.Trace, stdout), nil
}

// drive warms the SUT up and measures the run's window(s).
func (r *report) drive(ctx context.Context, proc *sutProc, lg *loadgen, o options) error {
	// Warm-up, excluded from every metric: fill every page of the
	// ranking once, then run the workload's own traffic.
	warm := lg.sweep(ctx, o.Seed)
	warm.merge(lg.run(ctx, o.Seed+1_000_000, o.Warmup))
	if n := warm.Failed + warm.WriteFail; n > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d warm-up operations failed, first: %s", n, warm.Errors[0]))
	}
	secs := time.Duration(o.Seconds * float64(time.Second))
	if !o.Trace {
		var err error
		r.win, r.delta, err = measure(ctx, proc, lg, o.Seed, secs)
		return err
	}
	// An untraced reference window, then the traced one.
	ref, _, err := measure(ctx, proc, lg, o.Seed+2_000_000, secs/2)
	r.ref = ref
	if err != nil {
		return err
	}
	if err := proc.post("/trace/start"); err != nil {
		return err
	}
	r.win, r.delta, err = measure(ctx, proc, lg, o.Seed, secs)
	if err != nil {
		return err
	}
	spansPath, err := filepath.Abs(filepath.Join(o.WorkDir, "spans-"+r.w.Name+".bin"))
	if err != nil {
		return err
	}
	if err := proc.post("/trace/stop?out=" + spansPath); err != nil {
		return err
	}
	r.spans, err = readSpans(spansPath)
	return err
}

// measure runs one window between two SUT snapshots. The window is
// returned even when the closing snapshot fails.
func measure(ctx context.Context, proc *sutProc, lg *loadgen, seed int64, d time.Duration) (*window, delta, error) {
	before, err := proc.snapshot()
	if err != nil {
		return nil, delta{}, fmt.Errorf("snapshot before the window: %w", err)
	}
	win := lg.run(ctx, seed, d)
	after, err := proc.snapshot()
	if err != nil {
		return win, delta{}, fmt.Errorf("snapshot after the window: %w", err)
	}
	return win, delta{before, after}, nil
}

// delta is a pair of snapshots bracketing a window.
type delta struct{ A, B snapshot }
