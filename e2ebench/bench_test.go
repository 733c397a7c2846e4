package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the SUT child process, exactly
// as the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "sut" {
		if err := runSUT(os.Args[1:]); err != nil {
			os.Stderr.WriteString("sut: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// page renders what the synthetic site serves for page p with every
// fragment at version v.
func page(p int, v string) []byte {
	var b bytes.Buffer
	for k := 0; k < siteFragsPerPage; k++ {
		seg := []byte("<!--frag " + strconv.Itoa(p*siteFragsPerPage+k) + " v" + v + "-->")
		for len(seg) < siteFragBytes {
			seg = append(seg, 'x')
		}
		b.Write(seg)
	}
	return b.Bytes()
}

func TestCheckPage(t *testing.T) {
	good := page(7, "3")
	if err := checkPage(good, 7, nil); err != nil {
		t.Fatalf("intact page rejected: %v", err)
	}
	floor := make([]uint64, siteFragsPerPage)
	for k := range floor {
		floor[k] = 3
	}
	if err := checkPage(good, 7, floor); err != nil {
		t.Fatalf("page at the acknowledged version rejected: %v", err)
	}
	cases := map[string]func() ([]byte, []uint64){
		"flipped marker byte": func() ([]byte, []uint64) {
			b := bytes.Clone(good)
			b[5*siteFragBytes+3] ^= 0x20
			return b, nil
		},
		"truncated body": func() ([]byte, []uint64) { return good[:len(good)-1], nil },
		"another page":   func() ([]byte, []uint64) { return page(8, "3"), nil },
		"fragments out of order": func() ([]byte, []uint64) {
			b := bytes.Clone(good)
			first := bytes.Clone(b[:siteFragBytes])
			copy(b[:siteFragBytes], b[siteFragBytes:2*siteFragBytes])
			copy(b[siteFragBytes:2*siteFragBytes], first)
			return b, nil
		},
		"version older than acknowledged": func() ([]byte, []uint64) {
			fl := make([]uint64, siteFragsPerPage)
			fl[9] = 4
			return good, fl
		},
	}
	for name, mk := range cases {
		body, fl := mk()
		if err := checkPage(body, 7, fl); err == nil {
			t.Errorf("%s: check passed a bad page", name)
		}
	}
}

func TestQuantileIsExact(t *testing.T) {
	xs := []int64{900_000, 1_500_000} // 0.9 ms and 1.5 ms
	if got := quantile(xs, 0.5); got != 1_200_000 {
		t.Errorf("median of 0.9 and 1.5 ms = %v ns, want 1.2 ms exactly", got)
	}
	if got := quantile([]int64{900_000}, 0.99); got != 900_000 {
		t.Errorf("p99 of one 0.9 ms sample = %v, want 0.9 ms (no bucket rounding)", got)
	}
	if got := highestSupported(1000); got != 99 {
		t.Errorf("highest supported percentile of 1000 samples = %v, want 99", got)
	}
	if got := highestSupported(9); got != 0 {
		t.Errorf("highest supported percentile of 9 samples = %v, want 0", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest checks that BENCHMARK.json is what spec.go defines and
// that it keeps the benchmark contract's limits.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash e2ebench/run.sh --manifest BENCHMARK.json")
	}
	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better=%q", name, better)
		}
	}
	for _, w := range m.Workloads {
		check(w.Name, "x", "lower")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (unit s, lower) is missing")
	}
	for _, d := range m.PerLayer {
		check(d.Name, d.Unit, d.Better)
	}
}

// runSmoke runs the benchmark in-process on a tiny window and returns
// its exit code, its text output, and its result line.
func runSmoke(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"--seconds", "2", "--warmup", "300ms", "--setup-launches", "1", "--workdir", t.TempDir()}, args...)
	code := benchMain(args, &out)
	text := out.String()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, text)
	}
	return code, text, res
}

// TestSmoke runs every workload tiny, untraced and traced: every metric
// is printed with its unit and lands in the result. On the traced run
// every read is attributed to one handler span (the run checks that
// itself), the residual is not negative, and the layers nested in the
// handler's wall time (origin round trip, page tier) fit inside it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the SUT; skipped with -short")
	}
	for _, w := range append(workloads, ungated...) {
		for _, traced := range []bool{false, true} {
			defs, mode := endToEnd, "0"
			if traced {
				defs, mode = perLayer, "1"
			}
			code, text, res := runSmoke(t, "--workload", w.Name, "--seed", "3", "--trace", mode)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: exit %d, result %+v\n%s", w.Name, mode, code, res, text)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.Name, mode, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s missing or unit %q != %q", w.Name, mode, d.Name, m.Unit, d.Unit)
				}
				if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(d.Name) + `\s+\S+ ` + regexp.QuoteMeta(d.Unit) + `$`).MatchString(text) {
					t.Errorf("%s trace=%s: %s not printed with its unit", w.Name, mode, d.Name)
				}
			}
			if !traced {
				continue
			}
			v := func(k string) float64 { return res.Metrics[k].Value }
			client, handler := v("dpc.client_us_per_req"), v("dpc.handler_us_per_req")
			if handler <= 0 || v("dpc.residual_us_per_req") < 0 {
				t.Errorf("%s: handler %v us, residual %v us; want handler > 0 and residual >= 0 (client %v us)",
					w.Name, handler, v("dpc.residual_us_per_req"), client)
			}
			if nested := v("origin.rt_us_per_req") + v("pagecache.busy_us_per_req"); nested > handler {
				t.Errorf("%s: origin round trip + page tier = %v us exceeds the handler's %v us", w.Name, nested, handler)
			}
		}
	}
}

// TestCorruptBodyIsCaught has the SUT corrupt every 50th response and
// checks that the run reports those reads as failed, not as served.
func TestCorruptBodyIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the SUT; skipped with -short")
	}
	code, text, res := runSmoke(t, "--workload", "registered-hot", "--seed", "1", "--corrupt-every", "50")
	if code != 0 {
		t.Fatalf("exit %d: a run that measured must exit 0 and report failures in its result", code)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted bodies went unnoticed: result %+v", res)
	}
	if !strings.Contains(text, "marker") {
		t.Errorf("failure is not reported as found:\n%s", text)
	}
	// Every 50th response is corrupted, so about 2% of reads fail.
	if share := float64(res.Failed) / float64(res.Attempted); share < 0.01 || share > 0.03 {
		t.Errorf("failed share %.4f, want about 0.02", share)
	}
}
