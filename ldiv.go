// Package ldiv is the public API of a from-scratch reproduction of
// "The Hardness and Approximation Algorithms for L-Diversity"
// (Xiao, Yi, Tao; EDBT 2010).
//
// The library anonymizes categorical microdata by suppression so that the
// published table is l-diverse: in every QI-group at most a 1/l fraction of
// the tuples share a sensitive value. Its centerpiece is the paper's TP
// three-phase algorithm, the first l-diversity algorithm with a non-trivial
// worst-case bound on information loss (an l·d approximation of the minimum
// number of stars), plus the TP+ hybrid, the Hilbert and TDS baselines used
// in the paper's evaluation, exact reference solvers, information-loss
// metrics and synthetic census data generators.
//
// Quick start:
//
//	t, _ := ldiv.GenerateDataset("sal", 10000, 1)
//	res, err := ldiv.TPPlus(t, 4)
//	if err != nil { ... }
//	gen, _ := res.Generalize(t)
//	fmt.Println(gen.Stars(), "stars")
//
// Beyond the library, the repository ships command-line tools (cmd/anonymize,
// cmd/datagen, cmd/ldivbench) and ldivd (cmd/ldivd, internal/service), an
// HTTP job server that anonymizes submitted CSV tables asynchronously. See
// docs/ARCHITECTURE.md for the package map and data flow.
package ldiv

import (
	"fmt"
	"io"
	"strings"

	"ldiv/internal/anatomy"
	"ldiv/internal/attack"
	"ldiv/internal/audit"
	"ldiv/internal/core"
	"ldiv/internal/dataset"
	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/hilbert"
	"ldiv/internal/incognito"
	"ldiv/internal/matching"
	"ldiv/internal/metrics"
	"ldiv/internal/mondrian"
	"ldiv/internal/query"
	"ldiv/internal/table"
	"ldiv/internal/taxonomy"
	"ldiv/internal/tds"
)

// Core data model types, re-exported from the internal packages.
type (
	// Table is a microdata table with categorical QI attributes and one
	// sensitive attribute.
	Table = table.Table
	// Attribute is a categorical attribute with a label dictionary.
	Attribute = table.Attribute
	// Schema describes a table's QI attributes and sensitive attribute.
	Schema = table.Schema
	// Partition is a partition of a table's rows into QI-groups.
	Partition = generalize.Partition
	// Generalized is a published table: original rows with generalized cells.
	Generalized = generalize.Generalized
	// Cell is one published QI value (exact, star, or sub-domain).
	Cell = generalize.Cell
	// Result is the outcome of a TP or TP+ run.
	Result = core.Result
	// Hierarchy is a generalization hierarchy used by TDS.
	Hierarchy = taxonomy.Hierarchy
)

// ErrNotEligible is returned when a table is not l-eligible, in which case no
// l-diverse generalization exists.
var ErrNotEligible = core.ErrNotEligible

// NewAttribute creates an empty categorical attribute.
func NewAttribute(name string) *Attribute { return table.NewAttribute(name) }

// NewIntegerAttribute creates an attribute whose domain is 0..cardinality-1.
func NewIntegerAttribute(name string, cardinality int) *Attribute {
	return table.NewIntegerAttribute(name, cardinality)
}

// NewSchema builds a schema from QI attributes and a sensitive attribute.
func NewSchema(qi []*Attribute, sa *Attribute) (*Schema, error) { return table.NewSchema(qi, sa) }

// NewTable creates an empty table over the schema.
func NewTable(schema *Schema) *Table { return table.New(schema) }

// ReadCSV reads microdata from CSV, treating qiColumns as QI attributes and
// saColumn as the sensitive attribute. Each selected column must be named
// exactly once in the header; errors name the line a bad record starts on.
// A reader that reports its length, through io.ReaderAt plus Len() int and
// Size() int64 as *bytes.Reader and *strings.Reader do, gets its table
// allocated once, for as many rows as its unread bytes can hold; the table
// of any other reader grows by doubling as rows arrive.
func ReadCSV(r io.Reader, qiColumns []string, saColumn string) (*Table, error) {
	return table.ReadCSV(r, qiColumns, saColumn)
}

// WriteCSV writes a table as CSV.
func WriteCSV(w io.Writer, t *Table) error { return table.WriteCSV(w, t) }

// WriteGeneralizedCSV writes a published (generalized) table as CSV with the
// same header layout as WriteCSV: suppressed values are rendered as "*" and
// sub-domains as "{v1,v2,...}", so the release can be re-read with ReadCSV.
// A w with a Grow(int) method, such as *bytes.Buffer or *strings.Builder,
// is asked to reserve the release's exact size before the first write.
func WriteGeneralizedCSV(w io.Writer, g *Generalized) error { return generalize.WriteCSV(w, g) }

// TP runs the paper's three-phase approximation algorithm and returns the
// surviving QI-groups plus the residue set of suppressed tuples. The number
// of suppressed tuples is at most l times the optimum (Theorem 3) and the
// number of stars at most l·d times the optimum (Lemma 2).
func TP(t *Table, l int) (*Result, error) {
	return core.NewAnonymizer(l).Anonymize(t)
}

// TPPlus runs TP and then refines the residue set with the Hilbert heuristic,
// which can only reduce the number of stars (Section 5.6 / 6.1).
func TPPlus(t *Table, l int) (*Result, error) {
	return core.NewHybridAnonymizer(l, hilbert.NewSuppressor(l)).Anonymize(t)
}

// TPWithGroups runs TP starting from a caller-supplied partition into groups
// of identical (possibly pre-coarsened) QI values, supporting the
// preprocessing workflow of Section 5.6.
func TPWithGroups(t *Table, groups [][]int, l int) (*Result, error) {
	return core.NewAnonymizer(l).AnonymizeGroups(t, groups)
}

// Hilbert runs the Hilbert space-filling-curve suppression baseline and
// returns its partition into l-eligible QI-groups.
func Hilbert(t *Table, l int) (*Partition, error) {
	return hilbert.NewSuppressor(l).Anonymize(t)
}

// TDS runs the top-down specialization baseline (single-dimensional
// generalization adapted to l-diversity) with default balanced hierarchies.
func TDS(t *Table, l int) (*Generalized, error) {
	return tds.NewAnonymizer(l).Anonymize(t)
}

// TDSWithHierarchies runs TDS with caller-supplied generalization
// hierarchies, one per QI attribute in column order.
func TDSWithHierarchies(t *Table, l int, hs []*Hierarchy) (*Generalized, error) {
	return (&tds.Anonymizer{L: l, Hierarchies: hs}).Anonymize(t)
}

// Mondrian runs the multi-dimensional Mondrian baseline and returns its
// multi-dimensional generalization.
func Mondrian(t *Table, l int) (*Generalized, error) {
	return mondrian.NewAnonymizer(l).Generalize(t)
}

// Incognito runs the full-domain single-dimensional generalization baseline:
// it searches the lattice of per-attribute generalization levels for the
// least-generalized l-diverse full-domain recoding.
func Incognito(t *Table, l int) (*Generalized, error) {
	res, err := incognito.NewAnonymizer(l).Anonymize(t)
	if err != nil {
		return nil, err
	}
	return res.Generalized, nil
}

// Algorithms lists every algorithm name CanonicalAlgorithm accepts, in
// display order: the generalization algorithms runnable with AnonymizeWith,
// plus "anatomy" (the two-table release of Anatomize).
var Algorithms = []string{"tp", "tp+", "hilbert", "tds", "anatomy", "mondrian", "incognito"}

// CanonicalAlgorithm normalizes an algorithm name to its canonical form
// (one of Algorithms; "tp+" also accepts the spellings "tpplus" and
// "tp-plus") and reports whether the name is known. It is the single
// name-validation point shared by cmd/anonymize and the ldivd job server.
func CanonicalAlgorithm(name string) (string, bool) {
	switch lower := strings.ToLower(name); lower {
	case "tp", "hilbert", "tds", "anatomy", "mondrian", "incognito":
		return lower, true
	case "tp+", "tpplus", "tp-plus":
		return "tp+", true
	}
	return "", false
}

// AnonymizeWith runs the named generalization algorithm (a canonical name
// from Algorithms, excluding "anatomy") and returns the published table plus
// the TP termination phase (0 for non-TP algorithms). It is the dispatch
// shared by cmd/anonymize and the ldivd job server; "anatomy" is rejected
// here because its two-table release has no Generalized form — call
// Anatomize instead.
func AnonymizeWith(t *Table, l int, algo string) (*Generalized, int, error) {
	return AnonymizeWithWorkers(t, l, algo, 0)
}

// AnonymizeWithWorkers is AnonymizeWith with an explicit bound on the TP
// core's data-parallel stages. Only "tp" and "tp+" consume the bound (the
// other algorithms are serial); values below 1 mean one worker per CPU, and
// the published release is byte-identical at every worker count.
func AnonymizeWithWorkers(t *Table, l int, algo string, workers int) (*Generalized, int, error) {
	switch algo {
	case "tp":
		res, err := (&core.Anonymizer{L: l, Workers: workers}).Anonymize(t)
		if err != nil {
			return nil, 0, err
		}
		g, err := res.Generalize(t)
		return g, res.TerminationPhase, err
	case "tp+":
		res, err := (&core.HybridAnonymizer{L: l, Refiner: hilbert.NewSuppressor(l), Workers: workers}).Anonymize(t)
		if err != nil {
			return nil, 0, err
		}
		g, err := res.Generalize(t)
		return g, res.TerminationPhase, err
	case "hilbert":
		p, err := Hilbert(t, l)
		if err != nil {
			return nil, 0, err
		}
		g, err := Suppress(t, p)
		return g, 0, err
	case "tds":
		g, err := TDS(t, l)
		return g, 0, err
	case "mondrian":
		g, err := Mondrian(t, l)
		return g, 0, err
	case "incognito":
		g, err := Incognito(t, l)
		return g, 0, err
	case "anatomy":
		return nil, 0, fmt.Errorf("ldiv: anatomy publishes two tables and has no generalized form; use Anatomize")
	default:
		return nil, 0, fmt.Errorf("ldiv: unknown algorithm %q (want one of %s)", algo, strings.Join(Algorithms, ", "))
	}
}

// OptimalTwoDiverse computes the provably optimal 2-diverse suppression of a
// table with exactly two sensitive values, via minimum-cost perfect matching
// (Section 4). It returns the optimal partition and its star count.
func OptimalTwoDiverse(t *Table) (*Partition, int, error) {
	return matching.OptimalTwoDiverse(t)
}

// NewFanoutHierarchy builds a balanced interval hierarchy over an attribute's
// code order, for use with TDSWithHierarchies.
func NewFanoutHierarchy(a *Attribute, fanout int) *Hierarchy {
	return taxonomy.NewFanout(a, fanout)
}

// NewPartition builds a partition from row-index groups (empty groups are
// dropped, contents copied).
func NewPartition(groups [][]int) *Partition { return generalize.NewPartition(groups) }

// Suppress applies suppression (Definition 1) to a partition.
func Suppress(t *Table, p *Partition) (*Generalized, error) { return generalize.Suppress(t, p) }

// MultiDimensional renders the multi-dimensional generalization induced by a
// partition (each group publishes the minimal covering sub-domains).
func MultiDimensional(t *Table, p *Partition) (*Generalized, error) {
	return generalize.MultiDimensional(t, p)
}

// Stars returns the number of stars of a partition's suppression
// generalization, the objective of star minimization (Problem 1).
func Stars(t *Table, p *Partition) int { return generalize.StarsForPartition(t, p) }

// KLDivergence measures the information loss of a generalized table as the
// KL-divergence between the distribution it induces and the microdata
// distribution (Equation 2).
func KLDivergence(g *Generalized) (float64, error) { return metrics.KLDivergence(g) }

// IsLDiverse reports whether a partition of t satisfies l-diversity.
func IsLDiverse(t *Table, p *Partition, l int) bool {
	return eligibility.IsLDiversePartition(t, p.Groups, l)
}

// EntropyLDiverse reports whether every group of the partition has sensitive
// entropy at least log(l) (entropy l-diversity, a stricter principle surveyed
// in Section 2).
func EntropyLDiverse(t *Table, p *Partition, l int) bool {
	return eligibility.EntropyLDiversity(t, p.Groups, l)
}

// RecursiveCLDiverse reports whether the partition satisfies recursive
// (c,l)-diversity.
func RecursiveCLDiverse(t *Table, p *Partition, c float64, l int) bool {
	return eligibility.RecursiveCLDiversity(t, p.Groups, c, l)
}

// AlphaKAnonymous reports whether the partition satisfies (alpha,k)-anonymity:
// groups of at least k tuples in which no sensitive value exceeds an alpha
// fraction.
func AlphaKAnonymous(t *Table, p *Partition, alpha float64, k int) bool {
	return eligibility.AlphaKAnonymity(t, p.Groups, alpha, k)
}

// DistinctLDiverse reports whether every group contains at least l distinct
// sensitive values.
func DistinctLDiverse(t *Table, p *Partition, l int) bool {
	return eligibility.DistinctLDiversity(t, p.Groups, l)
}

// IsEligible reports whether the table itself is l-eligible, the necessary
// and sufficient condition for an l-diverse generalization to exist.
func IsEligible(t *Table, l int) bool { return eligibility.IsEligibleTable(t, l) }

// MaxEligibleL returns the largest l for which an l-diverse generalization of
// t exists.
func MaxEligibleL(t *Table) int { return eligibility.MaxEligibleL(t) }

// Additional audit and utility tooling re-exported from the internal packages.
type (
	// AttackReport summarizes the linking-attack risk of a publication.
	AttackReport = attack.Report
	// Anatomy is the result of an anatomy (bucketization) publication.
	Anatomy = anatomy.Result
	// Query is a conjunctive count query over QI and sensitive values.
	Query = query.Query
	// Workload is a set of count queries.
	Workload = query.Workload
	// WorkloadEvaluation summarizes the error of a workload on a publication.
	WorkloadEvaluation = query.Evaluation
)

// AuditLinkingAttack simulates the Section 1 linking adversary against a
// published generalization and reports per-individual inference confidence.
func AuditLinkingAttack(g *Generalized) (*AttackReport, error) { return attack.Audit(g) }

// AuditPartition is AuditLinkingAttack for a partition published with
// suppression.
func AuditPartition(t *Table, p *Partition) (*AttackReport, error) {
	return attack.AuditPartition(t, p)
}

// Anatomize publishes t with the anatomy methodology (exact QI values, a
// separate sensitive table, l-diverse buckets).
func Anatomize(t *Table, l int) (*Anatomy, error) { return anatomy.Anonymize(t, l) }

// WriteAnatomyQITCSV writes an anatomy publication's quasi-identifier table
// as CSV (header Row,<QI names...>,GroupID), the canonical release layout the
// ldivd server serves and VerifyAnatomyRelease parses back.
func WriteAnatomyQITCSV(w io.Writer, t *Table, a *Anatomy) error {
	return anatomy.WriteQITCSV(w, t, a)
}

// WriteAnatomySTCSV writes an anatomy publication's sensitive table as CSV
// (header GroupID,<SA name>,Count), the second half of the two-table release.
func WriteAnatomySTCSV(w io.Writer, t *Table, a *Anatomy) error {
	return anatomy.WriteSTCSV(w, t, a)
}

// Release-auditor types, re-exported from internal/audit. The auditor is the
// independent verifier of the system: it takes a published release plus the
// original microdata and proves — or refutes — that the release satisfies
// l-diversity and is consistent with the source, without trusting the
// producer's in-process partition.
type (
	// ReleaseReport is the auditor's verdict; its JSON encoding is the
	// canonical machine-readable form shared by VerifyRelease, cmd/ldivaudit
	// and the server's POST /v1/verify.
	ReleaseReport = audit.Report
	// ReleaseViolation is one typed verification failure.
	ReleaseViolation = audit.Violation
	// VerifyOptions tunes a release verification (L is required; entropy and
	// recursive (c,l)-diversity checks are opt-in).
	VerifyOptions = audit.Options
)

// VerifyRelease audits a single-table generalized release (as produced by
// tp, tp+, hilbert, tds, mondrian or incognito and written with
// WriteGeneralizedCSV) against the original microdata: it re-derives the
// equivalence groups from the release's published QI signatures, checks
// frequency-based l-diversity (plus any opt-in principle) on them, and checks
// fidelity — row counts reconcile, every generalized cell covers the original
// value it replaces, and each group's sensitive multiset matches the original
// rows it covers. Content problems are typed violations in the report; the
// error is reserved for reader failures and invalid options.
func VerifyRelease(t *Table, release io.Reader, opts VerifyOptions) (*ReleaseReport, error) {
	return audit.VerifyGeneralized(t, release, opts)
}

// VerifyAnatomyRelease audits anatomy's two-table release (the QIT and ST
// CSVs written by WriteAnatomyQITCSV/WriteAnatomySTCSV) against the original
// microdata, joining groups on the published GroupID.
func VerifyAnatomyRelease(t *Table, qit, st io.Reader, opts VerifyOptions) (*ReleaseReport, error) {
	return audit.VerifyAnatomy(t, qit, st, opts)
}

// RandomWorkload generates a random range-count query workload against t.
func RandomWorkload(t *Table, queries, dims int, selectivity float64, seed int64) (*Workload, error) {
	return query.RandomWorkload(t, queries, dims, selectivity, seed)
}

// EvaluateWorkload answers every query of the workload on the published table
// and on the microdata, summarizing the relative error.
func EvaluateWorkload(g *Generalized, w *Workload) (*WorkloadEvaluation, error) {
	return query.Evaluate(g, w)
}

// DatasetFamilies lists the scenario-corpus dataset families in catalog
// order, starting with the census pair ("sal", "occ") and continuing with
// the adversarial families engineered to stress the algorithms outside the
// census envelope (correlated QI/SA, heavy-tail sensitive domains, deep
// taxonomies, near-duplicate signatures, degenerate edges). Every name is a
// valid -dataset argument of cmd/datagen and a valid GenerateDataset family.
func DatasetFamilies() []string { return dataset.Families() }

// DatasetFamilyDescription returns the one-line property statement of a
// corpus family and whether the family exists.
func DatasetFamilyDescription(family string) (string, bool) {
	f, ok := dataset.Lookup(family)
	if !ok {
		return "", false
	}
	return f.Description, true
}

// GenerateDataset generates a table of the named scenario-corpus family and
// runs the family's Validate self-check before returning, so the advertised
// property (correlation strength, heavy tail, degenerate shape, ...) is
// guaranteed to hold on the returned table.
func GenerateDataset(family string, rows int, seed int64) (*Table, error) {
	return dataset.GenerateValidated(family, dataset.Config{Rows: rows, Seed: seed})
}
