package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"ldiv"
	"ldiv/internal/audit"
	"ldiv/internal/core"
	"ldiv/internal/dataset"
	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/hilbert"
	"ldiv/internal/metrics"
	"ldiv/internal/table"
)

// publishSpec is one library workload: the cmd/anonymize pipeline
// ReadCSV → IsEligible → AnonymizeWithWorkers → IsLDiverse →
// WriteGeneralizedCSV → KLDivergence on generated census SAL rows, one op at
// a time with the CLI's default worker bound.
type publishSpec struct {
	name string
	rows int
	qi   []string
	l    int
	algo string
}

// minOps is the fewest timed ops a publish run makes, whatever --seconds
// says: 110 ops leave at least ten samples beyond the p90.
const minOps = 110

// verifyEvery audits every n-th timed op's release (the first included);
// the audit is timed on its own, outside latency_ms.
const verifyEvery = 5

// The sensitive attribute of SAL.
const salSA = "Income"

// salFour is the paper's first SAL-4 projection (dataset.Projections(4)[0]).
var salFour = []string{"Age", "Gender", "Race", "Marital Status"}

// publishSAL is the paper's workload: tp+ on SAL-4. Its time sits in
// metrics (KL) and hilbert (residue refinement), and its working set fits
// in the CPU cache.
var publishSAL = publishSpec{name: "publish-sal", rows: 20000, qi: salFour, l: 6, algo: "tp+"}

// publishWide is tp on all seven SAL QI attributes: ~72k QI-groups, ~80% of
// the rows in the one generalized residue group, so KL is linear and the
// time spreads over parse, grouping, phase-1 multisets, suppression and
// rendering. Its working set is larger than the CPU cache.
var publishWide = publishSpec{name: "publish-wide", rows: 100000, qi: dataset.QINames, l: 4, algo: "tp"}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

// warmups is the number of untimed ops before timing starts.
const warmups = 2

// genSAL generates the SAL table for a seed and encodes it as CSV: the only
// input the pipeline receives.
func genSAL(rows int, seed int64, qi []string) ([]byte, error) {
	t, err := dataset.Generate("sal", dataset.Config{Rows: rows, Seed: seed})
	if err != nil {
		return nil, err
	}
	if qi != nil {
		if t, err = t.ProjectNames(qi); err != nil {
			return nil, err
		}
	}
	var b bytes.Buffer
	if err := table.WriteCSV(&b, t); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// release is the output of one pipeline op.
type release struct {
	src   *ldiv.Table
	csv   []byte
	sum   [sha256.Size]byte
	stars int
	kl    float64
}

func (r *release) sameAs(ref *release) bool {
	return r.sum == ref.sum && r.stars == ref.stars && r.kl == ref.kl
}

// publish runs the cmd/anonymize pipeline through the public API.
func publish(csv []byte, qi []string, l int, algo string) (*release, error) {
	t, err := ldiv.ReadCSV(bytes.NewReader(csv), qi, salSA)
	if err != nil {
		return nil, err
	}
	if !ldiv.IsEligible(t, l) {
		return nil, fmt.Errorf("the table is not %d-eligible", l)
	}
	gen, _, err := ldiv.AnonymizeWithWorkers(t, l, algo, 0)
	if err != nil {
		return nil, err
	}
	if !ldiv.IsLDiverse(t, gen.Partition, l) {
		return nil, fmt.Errorf("the release is not %d-diverse", l)
	}
	var b bytes.Buffer
	if err := ldiv.WriteGeneralizedCSV(&b, gen); err != nil {
		return nil, err
	}
	kl, err := ldiv.KLDivergence(gen)
	if err != nil {
		return nil, err
	}
	return &release{src: t, csv: b.Bytes(), sum: sha256.Sum256(b.Bytes()), stars: gen.Stars(), kl: kl}, nil
}

// The spans of a traced op, one per layer call.
const (
	spanReadCSV = iota
	spanEligibility
	spanGroup
	spanTP
	spanRefine
	spanSuppress
	spanRender
	spanKL
	nSpans
)

// opTrace is what a traced op measured besides its release. Its spans time
// the layer calls alone; wall is the whole op as its caller timed it.
type opTrace struct {
	spans        [nSpans]time.Duration
	wall         time.Duration
	groups       int
	phase        int
	residueRows  int
	residueParts int
	releaseBytes int
	gen          *generalize.Generalized
}

// timedRefiner times the TP+ residue refinement from outside hilbert.
type timedRefiner struct {
	inner core.Refiner
	spent time.Duration
	parts int
}

func (r *timedRefiner) PartitionRows(t *table.Table, rows []int, l int) ([][]int, error) {
	start := time.Now()
	groups, err := r.inner.PartitionRows(t, rows, l)
	r.spent += time.Since(start)
	r.parts = len(groups)
	return groups, err
}

// publishTraced does the work of publish, calling each layer's public
// functions directly so every call can be timed: ldiv.AnonymizeWithWorkers
// is GroupByQI followed by the TP core's AnonymizeGroups (plus, for tp+,
// the hilbert refinement of the residue) and Suppress.
func publishTraced(csv []byte, qi []string, l int, algo string) (*release, *opTrace, error) {
	tr := &opTrace{}
	var mark time.Time
	start := func() { mark = time.Now() }
	stop := func(s int) { tr.spans[s] += time.Since(mark) }

	start()
	t, err := table.ReadCSV(bytes.NewReader(csv), qi, salSA)
	stop(spanReadCSV)
	if err != nil {
		return nil, nil, err
	}
	start()
	eligible := eligibility.IsEligibleTable(t, l)
	stop(spanEligibility)
	if !eligible {
		return nil, nil, fmt.Errorf("the table is not %d-eligible", l)
	}
	start()
	groups := t.GroupByQI()
	stop(spanGroup)
	var res *core.Result
	refiner := &timedRefiner{inner: hilbert.NewSuppressor(l)}
	start()
	switch algo {
	case "tp":
		res, err = (&core.Anonymizer{L: l}).AnonymizeGroups(t, groups)
	case "tp+":
		res, err = (&core.HybridAnonymizer{L: l, Refiner: refiner}).AnonymizeGroups(t, groups)
	default:
		return nil, nil, fmt.Errorf("no traced pipeline for algorithm %q", algo)
	}
	stop(spanTP)
	tr.spans[spanTP] -= refiner.spent
	tr.spans[spanRefine] = refiner.spent
	if err != nil {
		return nil, nil, err
	}
	start()
	gen, err := res.Generalize(t)
	stars := 0
	if err == nil {
		stars = gen.Stars()
	}
	stop(spanSuppress)
	if err != nil {
		return nil, nil, err
	}
	start()
	diverse := eligibility.IsLDiversePartition(t, gen.Partition.Groups, l)
	stop(spanEligibility)
	if !diverse {
		return nil, nil, fmt.Errorf("the release is not %d-diverse", l)
	}
	var b bytes.Buffer
	start()
	err = generalize.WriteCSV(&b, gen)
	stop(spanRender)
	if err != nil {
		return nil, nil, err
	}
	start()
	kl, err := metrics.KLDivergence(gen)
	stop(spanKL)
	if err != nil {
		return nil, nil, err
	}
	tr.groups = len(groups)
	tr.phase = res.TerminationPhase
	tr.residueRows = len(res.Residue)
	tr.residueParts = refiner.parts
	tr.releaseBytes = b.Len()
	tr.gen = gen
	return &release{src: t, csv: b.Bytes(), sum: sha256.Sum256(b.Bytes()), stars: stars, kl: kl}, tr, nil
}

// klShape counts what the KL computation iterates over: distinct (QI, SA)
// points of the source and generalized (non-exact) groups of the release.
func klShape(g *generalize.Generalized) (points, general int) {
	t := g.Source
	seen := make(map[string]struct{}, t.Len())
	for r := 0; r < t.Len(); r++ {
		seen[fmt.Sprintf("%s|%d", t.QIKey(r), t.SAValue(r))] = struct{}{}
	}
	for _, rows := range g.Partition.Groups {
		if len(rows) == 0 {
			continue
		}
		for _, c := range g.Cells[rows[0]] {
			if c.Kind != generalize.CellExact {
				general++
				break
			}
		}
	}
	return len(seen), general
}

// verifyRelease audits a release against its source and returns how long
// the audit took.
func verifyRelease(rel *release, l int) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	rep, err := audit.VerifyGeneralized(rel.src, bytes.NewReader(rel.csv), audit.Options{L: l})
	took := time.Since(start)
	if err != nil {
		return took, err
	}
	if !rep.OK {
		return took, fmt.Errorf("audit verdict not ok: %d violation(s)", rep.ViolationCount)
	}
	return took, nil
}

// layerStats gathers the traced ops' per-layer samples.
type layerStats struct {
	spans    [nSpans][]float64
	verify   []float64
	coverage []float64
	traced   []float64
	plain    []float64
	last     *opTrace
}

func (ls *layerStats) add(tr *opTrace) {
	sum := time.Duration(0)
	for s := range tr.spans {
		ls.spans[s] = append(ls.spans[s], ms(tr.spans[s]))
		sum += tr.spans[s]
	}
	ls.coverage = append(ls.coverage, float64(sum)/float64(tr.wall))
	ls.traced = append(ls.traced, ms(tr.wall))
	ls.last = tr
}

// values turns the samples into per-layer metrics.
func (ls *layerStats) values(v map[string]float64) {
	v["table.read_csv_ms"] = median(ls.spans[spanReadCSV])
	v["table.group_ms"] = median(ls.spans[spanGroup])
	v["table.groups"] = float64(ls.last.groups)
	v["eligibility.check_ms"] = median(ls.spans[spanEligibility])
	v["core.tp_ms"] = median(ls.spans[spanTP])
	v["core.phase"] = float64(ls.last.phase)
	v["core.residue_rows"] = float64(ls.last.residueRows)
	v["hilbert.refine_ms"] = median(ls.spans[spanRefine])
	v["hilbert.residue_groups"] = float64(ls.last.residueParts)
	v["generalize.suppress_ms"] = median(ls.spans[spanSuppress])
	v["generalize.render_ms"] = median(ls.spans[spanRender])
	v["generalize.release_bytes"] = float64(ls.last.releaseBytes)
	v["metrics.kl_ms"] = median(ls.spans[spanKL])
	points, general := klShape(ls.last.gen)
	v["metrics.kl_points"] = float64(points)
	v["metrics.kl_general_groups"] = float64(general)
	v["audit.verify_ms"] = median(ls.verify)
	v["trace.coverage"] = median(ls.coverage)
	v["trace.overhead"] = median(ls.traced)/median(ls.plain) - 1
}

// runPublish sets up the workload's CSV, warms up, and runs timed ops until
// both --seconds have passed and minOps ops are done. The traced run
// alternates untraced and traced ops, so the per-layer numbers and the
// tracing overhead come from the same stretch of time.
func runPublish(ctx context.Context, spec publishSpec, o options) (*outcome, provenance, error) {
	prov := newProvenance(spec.name, o.seed, spec.rows, len(spec.qi), spec.l, spec.algo)
	out := &outcome{values: map[string]float64{}}

	var csv []byte
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		b, err := genSAL(spec.rows, o.seed, nil)
		if err != nil {
			return nil, prov, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if csv != nil && !bytes.Equal(b, csv) {
			out.fail("set-up %d generated different bytes for the same seed", i)
		}
		csv = b
	}

	var ref *release
	for i := 0; i < warmups; i++ {
		if err := ctx.Err(); err != nil {
			return nil, prov, err
		}
		rel, err := publish(csv, spec.qi, spec.l, spec.algo)
		if err != nil {
			return nil, prov, fmt.Errorf("warm-up op: %w", err)
		}
		if ref == nil {
			ref = rel
			if _, err := verifyRelease(ref, spec.l); err != nil {
				out.fail("first release fails the audit: %v", err)
			}
		} else if !rel.sameAs(ref) {
			out.fail("warm-up op %d released different output", i)
		}
	}

	var lat, allocs, verifies []float64
	var ls layerStats
	dur := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < dur; i++ {
		if err := ctx.Err(); err != nil {
			return nil, prov, err
		}
		traced := o.trace && i%2 == 1
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		var rel *release
		var tr *opTrace
		var err error
		if traced {
			rel, tr, err = publishTraced(csv, spec.qi, spec.l, spec.algo)
		} else {
			rel, err = publish(csv, spec.qi, spec.l, spec.algo)
		}
		took := time.Since(t0)
		runtime.ReadMemStats(&m1)
		out.attempted++
		if err != nil {
			out.failed++
			out.fail("op %d: %v", i, err)
			continue
		}
		if !rel.sameAs(ref) {
			out.failed++
			out.fail("op %d: release differs from the first op's (stars %d vs %d, kl %v vs %v)", i, rel.stars, ref.stars, rel.kl, ref.kl)
			continue
		}
		if traced {
			tr.wall = took
			ls.add(tr)
		} else {
			lat = append(lat, ms(took))
			allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
			if o.trace {
				ls.plain = append(ls.plain, ms(took))
			}
		}
		if i%verifyEvery == 0 {
			took, err := verifyRelease(rel, spec.l)
			if err != nil {
				out.failed++
				out.fail("op %d: %v", i, err)
				continue
			}
			if traced || !o.trace {
				verifies = append(verifies, ms(took))
			}
		}
	}

	if len(lat) == 0 {
		return nil, prov, fmt.Errorf("no timed op succeeded: %v", out.problems)
	}
	v := out.values
	v["ops"] = float64(len(lat))
	if o.trace {
		ls.verify = verifies
		if ls.last == nil || len(ls.plain) == 0 {
			return nil, prov, fmt.Errorf("no successful traced op")
		}
		ls.values(v)
		v["traced_ops"] = float64(len(ls.traced))
		return out, prov, nil
	}
	v["setup_s"] = median(setups)
	v["latency_ms.p50"] = quantile(lat, 0.5)
	v["latency_ms.p90"] = p90(lat)
	v["rows_per_s"] = rowsPerSecond(spec.rows, v["latency_ms.p50"])
	v["alloc_mb.per_op"] = median(allocs)
	v["stars"] = float64(ref.stars)
	v["kl"] = ref.kl
	v["verify_ms.p50"] = median(verifies)
	v["verify_samples"] = float64(len(verifies))
	return out, prov, nil
}
