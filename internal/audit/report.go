// Package audit is the release auditor: an independent verifier that takes a
// published release (a generalized CSV table, or anatomy's QIT+ST pair) plus
// the original microdata and proves — or refutes — that the release satisfies
// l-diversity and is consistent with the source.
//
// The paper's guarantee is a property of the published release, not of the
// in-process partition, so the auditor never trusts the producer: it re-derives
// the equivalence groups from the release's own structure (rows with identical
// published QI signatures for generalized releases, rows joined on GroupID for
// anatomy) and checks two independent properties:
//
//   - privacy: every release-derived group is l-eligible (frequency-based
//     l-diversity, Definition 2), contains at least l distinct sensitive
//     values, and optionally satisfies the stricter Section-2 principles
//     (entropy l-diversity, recursive (c,l)-diversity);
//   - fidelity: the release describes the original table — row counts
//     reconcile, every generalized cell covers the original QI value it
//     replaces, and each group's published sensitive multiset equals the
//     sensitive multiset of the original rows it covers.
//
// Failures are reported as typed Violations in a Report whose JSON encoding is
// canonical: ldiv.VerifyRelease, cmd/ldivaudit and the server's POST /v1/verify
// all produce byte-identical verdicts for the same inputs.
package audit

// Kind distinguishes the two release shapes the auditor understands.
type Kind string

const (
	// KindGeneralized is a single-table release in the table.WriteCSV header
	// layout whose QI cells may be exact labels, "*", or "{v1,v2,...}"
	// sub-domains (TP, TP+, Hilbert, TDS, Mondrian, Incognito).
	KindGeneralized Kind = "generalized"
	// KindAnatomy is anatomy's two-table release: a quasi-identifier table
	// (Row, QI..., GroupID) and a sensitive table (GroupID, SA, Count).
	KindAnatomy Kind = "anatomy"
)

// ViolationKind is a stable machine-readable identifier of one class of
// verification failure. Mutation tests assert that each corruption of a
// known-good release is caught with the right kind.
type ViolationKind string

const (
	// ViolationSchema: the release header does not match the original schema.
	ViolationSchema ViolationKind = "schema_mismatch"
	// ViolationMalformed: the release is not structurally parseable (CSV
	// syntax error, wrong field count, non-integer Row/GroupID/Count).
	ViolationMalformed ViolationKind = "malformed_release"
	// ViolationRowCount: the release does not contain exactly one row per
	// original tuple.
	ViolationRowCount ViolationKind = "row_count"
	// ViolationRowRef: an anatomy QIT row references a tuple identifier
	// outside the original table, or twice.
	ViolationRowRef ViolationKind = "row_ref"
	// ViolationGroupRef: a sensitive-table entry references a group that does
	// not exist in the QIT, or a QIT group is missing from the ST.
	ViolationGroupRef ViolationKind = "group_ref"
	// ViolationUnknownValue: the release publishes a value label absent from
	// the original attribute's domain.
	ViolationUnknownValue ViolationKind = "unknown_value"
	// ViolationQICoverage: a published QI cell cannot represent the original
	// value it replaces (a generalized interval must cover the source value;
	// anatomy publishes QI values exactly).
	ViolationQICoverage ViolationKind = "qi_coverage"
	// ViolationSAMismatch: a group's published sensitive multiset differs
	// from the sensitive multiset of the original rows it covers.
	ViolationSAMismatch ViolationKind = "sa_mismatch"
	// ViolationSTMismatch: anatomy's sensitive table is inconsistent with its
	// QIT (per-group counts do not sum to the group's size).
	ViolationSTMismatch ViolationKind = "st_mismatch"
	// ViolationFrequency: a group breaks frequency-based l-diversity (more
	// than 1/l of its tuples share one sensitive value).
	ViolationFrequency ViolationKind = "frequency_ldiv"
	// ViolationDistinct: a group has fewer than l distinct sensitive values.
	ViolationDistinct ViolationKind = "distinct_ldiv"
	// ViolationEntropy: a group breaks entropy l-diversity (opt-in check).
	ViolationEntropy ViolationKind = "entropy_ldiv"
	// ViolationRecursive: a group breaks recursive (c,l)-diversity (opt-in).
	ViolationRecursive ViolationKind = "recursive_ldiv"
)

// Violation is one verification failure, anchored to the release coordinates
// that exhibit it.
type Violation struct {
	// Kind identifies the failure class.
	Kind ViolationKind `json:"kind"`
	// Group is the release-derived group index the violation concerns
	// (generalized: QI-signature group in first-appearance order; anatomy:
	// the published GroupID), or -1 when the violation is not group-scoped.
	Group int `json:"group"`
	// Row is the 0-based release data row concerned, or -1.
	Row int `json:"row"`
	// Message is a human-readable description.
	Message string `json:"message"`
}

// Options tunes a verification. L is required; everything else is optional.
type Options struct {
	// L is the diversity parameter the release claims to satisfy.
	L int `json:"l"`
	// Entropy additionally requires entropy l-diversity of every group.
	Entropy bool `json:"entropy,omitempty"`
	// RecursiveC, when positive, additionally requires recursive
	// (RecursiveC, L)-diversity of every group.
	RecursiveC float64 `json:"recursive_c,omitempty"`
	// MaxViolations caps how many violations are recorded in the report
	// (the total count is always exact). 0 means the default (64); negative
	// records every violation.
	MaxViolations int `json:"-"`
}

// DefaultMaxViolations is the report's violation-recording cap when
// Options.MaxViolations is zero.
const DefaultMaxViolations = 64

// Report is the auditor's verdict. Its JSON encoding is the canonical
// machine-readable form shared by the library, cmd/ldivaudit and the server.
type Report struct {
	// Kind is the release shape that was verified.
	Kind Kind `json:"kind"`
	// L is the diversity parameter verified against.
	L int `json:"l"`
	// Rows is the original table's row count.
	Rows int `json:"rows"`
	// ReleaseRows is the number of data rows found in the release.
	ReleaseRows int `json:"release_rows"`
	// Groups is the number of release-derived equivalence groups.
	Groups int `json:"groups"`
	// OK reports the overall verdict: privacy and fidelity both hold.
	OK bool `json:"ok"`
	// Privacy reports whether every group passed every privacy check.
	Privacy bool `json:"privacy"`
	// Fidelity reports whether the release is consistent with the original
	// table (structure, row counts, coverage, sensitive multisets).
	Fidelity bool `json:"fidelity"`
	// ViolationCount is the exact number of violations found; Violations may
	// be shorter when the recording cap truncated it.
	ViolationCount int `json:"violation_count"`
	// Truncated reports that Violations was capped.
	Truncated bool `json:"truncated,omitempty"`
	// Violations lists the recorded failures in detection order.
	Violations []Violation `json:"violations"`
}

// reporter accumulates violations under the recording cap, counting privacy
// and fidelity failures exactly so the summary verdicts stay correct even when
// the recorded list is truncated.
type reporter struct {
	report   *Report
	max      int
	privacy  int
	fidelity int
}

func newReporter(kind Kind, opts Options, rows int) *reporter {
	max := opts.MaxViolations
	if max == 0 {
		max = DefaultMaxViolations
	}
	return &reporter{
		report: &Report{
			Kind:       kind,
			L:          opts.L,
			Rows:       rows,
			Violations: []Violation{},
		},
		max: max,
	}
}

// privacyKinds classifies which violation kinds count against the privacy
// verdict; everything else counts against fidelity.
var privacyKinds = map[ViolationKind]bool{
	ViolationFrequency: true,
	ViolationDistinct:  true,
	ViolationEntropy:   true,
	ViolationRecursive: true,
}

// add records a violation, subject to the recording cap. The message is
// built only for a violation that is recorded, so a release with far more
// violations than the cap costs no formatting past it.
func (r *reporter) add(kind ViolationKind, group, row int, message func() string) {
	r.report.ViolationCount++
	if privacyKinds[kind] {
		r.privacy++
	} else {
		r.fidelity++
	}
	if r.max >= 0 && len(r.report.Violations) >= r.max {
		r.report.Truncated = true
		return
	}
	r.report.Violations = append(r.report.Violations, Violation{Kind: kind, Group: group, Row: row, Message: message()})
}

// finish computes the summary verdicts and returns the report.
func (r *reporter) finish() *Report {
	rep := r.report
	rep.Privacy = r.privacy == 0
	rep.Fidelity = r.fidelity == 0
	rep.OK = rep.ViolationCount == 0
	return rep
}
