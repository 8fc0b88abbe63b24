// Command perfbench is the repository's benchmark. One invocation runs one
// workload in-process and prints a human-readable report followed, as its
// last line, by one JSON object:
//
//	{"correct": true, "attempted": 110, "failed": 0, "metrics": {...}}
//
// Usage (normally through run.py, which builds this program first):
//
//	perfbench --workload publish-sal --seed 1 --seconds 30 --trace 0 [--workdir DIR]
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd below); with
// --trace 1 a traced run doing the same work reports the per-layer ones
// (perLayer). Every run checks its outputs; a failed check makes the result
// incorrect and the exit code 1. SIGINT and SIGTERM stop the run, release
// everything it opened and exit without printing a result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// metricDef names one reported metric. For per-layer metrics, moves says
// which end-to-end metric the layer should move, and on which workload.
type metricDef struct {
	name, unit, moves string
}

// endToEnd lists the metrics a user of the library or server sees. Every
// workload reports each of them, and none of them is ever 0.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "latency_ms.p50", unit: "ms"},
	{name: "latency_ms.p90", unit: "ms"},
	{name: "rows_per_s", unit: "rows/s"},
	{name: "alloc_mb.per_op", unit: "MB"},
	{name: "stars", unit: "count"},
	{name: "kl", unit: "nats"},
	{name: "verify_ms.p50", unit: "ms"},
}

// perLayer lists the metrics of single layers, from the traced run. A layer
// a workload does not exercise reports 0 there.
var perLayer = []metricDef{
	{"table.read_csv_ms", "ms", "latency_ms on publish-wide"},
	{"table.group_ms", "ms", "latency_ms on publish-wide"},
	{"table.groups", "count", "latency_ms on publish-wide"},
	{"eligibility.check_ms", "ms", "latency_ms on publish-wide"},
	{"core.tp_ms", "ms", "latency_ms on publish-wide"},
	{"core.phase", "phase", "latency_ms on publish-wide"},
	{"core.residue_rows", "count", "latency_ms on publish-wide"},
	{"hilbert.refine_ms", "ms", "latency_ms on publish-sal"},
	{"hilbert.residue_groups", "count", "latency_ms on publish-sal"},
	{"generalize.suppress_ms", "ms", "latency_ms on publish-wide; alloc_mb.per_op on both publish workloads"},
	{"generalize.render_ms", "ms", "latency_ms on publish-wide"},
	{"generalize.release_bytes", "bytes", "latency_ms on publish-wide"},
	{"metrics.kl_ms", "ms", "latency_ms on publish-sal and serve-durable; little on publish-wide"},
	{"metrics.kl_points", "count", "latency_ms on publish-sal and serve-durable"},
	{"metrics.kl_general_groups", "count", "latency_ms on publish-sal and serve-durable"},
	{"audit.verify_ms", "ms", "verify_ms.p50"},
	{"service.submit_ms.p50", "ms", "latency_ms on serve-durable"},
	{"service.wait_ms.p50", "ms", "latency_ms on serve-durable"},
	{"service.algo_ms.p50", "ms", "latency_ms on serve-durable"},
	{"service.result_ms.p50", "ms", "latency_ms on serve-durable"},
	{"service.hit_ms.p50", "ms", "latency of a cached resubmit on serve-durable"},
	{"service.cache_hit_ratio", "ratio", "service.hit_ms.p50 on serve-durable"},
	{"service.polls_per_job", "count", "guard on measurement overhead"},
	{"store.journal_records_per_job", "count", "service.hit_ms.p50 and the submit share of latency_ms on serve-durable"},
	{"store.bytes_per_job", "bytes", "none today"},
	{"store.replay_ms", "ms", "none today"},
	{"trace.coverage", "ratio", "share of op wall time the spans cover"},
	{"trace.overhead", "ratio", "traced op p50 over untraced op p50, minus 1"},
}

// provenance records what produced a result, so two results can be compared.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Rows       int    `json:"rows"`
	D          int    `json:"d"`
	L          int    `json:"l"`
	Algorithm  string `json:"algorithm"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	// problems lists every failed check, for the report.
	problems []string
	values   map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

// runWorkload runs the named workload.
func runWorkload(ctx context.Context, o options) (*outcome, provenance, error) {
	switch o.workload {
	case "publish-sal":
		return runPublish(ctx, publishSAL, o)
	case "publish-wide":
		return runPublish(ctx, publishWide, o)
	default:
		return runServe(ctx, serveDurable, o)
	}
}

// deadline bounds a whole run, so a stuck run still releases what it holds
// and exits well within the 180 seconds a run is allowed.
const deadline = 160 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: publish-sal, publish-wide or serve-durable")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", "", "directory for temporary files (default: the system temp dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := o.workload == "publish-sal" || o.workload == "publish-wide" || o.workload == "serve-durable"
	if !known || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload publish-sal|publish-wide|serve-durable, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	out, prov, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	if err := report(stdout, o, prov, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(out.problems) > 0 || out.failed > 0 {
		return 1
	}
	return 0
}

// report prints the provenance, every metric with its unit, each failed
// check, and finally the one-line JSON result.
func report(w io.Writer, o options, prov provenance, out *outcome) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !o.trace {
			return fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		line := fmt.Sprintf("%-30s %14.4f %-6s", d.name, v, d.unit)
		if !ok {
			line = fmt.Sprintf("%-30s %14s %-6s", d.name, "-", d.unit)
		}
		if d.moves != "" {
			line += "  moves: " + d.moves
		}
		fmt.Fprintln(w, line)
	}
	for _, name := range slices.Sorted(maps.Keys(out.values)) {
		if _, ok := metrics[name]; !ok {
			fmt.Fprintf(w, "%-30s %14.4f (informational)\n", name, out.values[name])
		}
	}
	failRatio := 0.0
	if out.attempted > 0 {
		failRatio = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "%-30s %14.4f %-6s  (%d of %d ops)\n", "fail_ratio", failRatio, "ratio", out.failed, out.attempted)
	for _, p := range out.problems {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", p)
	}
	provJSON, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance: %s\n", provJSON)
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.problems) == 0 && out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}

func newProvenance(workload string, seed int64, rows, d, l int, algo string) provenance {
	return provenance{
		Workload: workload, Seed: seed, Rows: rows, D: d, L: l, Algorithm: algo,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks. xs is left as it is.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p90 returns the 90th percentile of per-op latencies taken in time order.
// A run of n ops is cut into n/100 consecutive windows (at least one), each
// leaving ten or more samples beyond its p90, and the median of the
// windows' p90s is returned: a burst of load from elsewhere on the host
// then moves one window, not the run's tail.
func p90(lat []float64) float64 {
	windows := max(len(lat)/100, 1)
	size := len(lat) / windows
	var p []float64
	for w := 0; w < windows; w++ {
		p = append(p, quantile(lat[w*size:(w+1)*size], 0.9))
	}
	return median(p)
}

// rowsPerSecond is the throughput of one op at the median latency: the
// median keeps it as steady as latency_ms.p50 on a host whose load varies,
// where a mean over all ops would follow the slowest ones.
func rowsPerSecond(rows int, p50ms float64) float64 { return float64(rows) / (p50ms / 1000) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
