package dataset

// The scenario corpus: a registry of named dataset families that stress the
// anonymization algorithms far outside the paper's SAL/OCC census envelope.
// Each family is a deterministic seeded generator paired with a Validate
// self-check that asserts the family's advertised property actually holds on
// the generated table, so a drifting generator fails loudly instead of
// silently weakening every downstream harness. Three layers consume the
// catalog: the differential audit harness (internal/audit), the CLI surface
// (cmd/datagen -dataset, cmd/ldivbench -fig corpus), and the library's
// ldiv.GenerateDataset, which the examples and the service tests draw their
// tables from.
//
// scripts/docs-lint.sh cross-checks the README "Scenario corpus" table
// against the Name literals in this file; keep every Family definition here.

import (
	"fmt"
	"math/rand"
	"strings"

	"ldiv/internal/eligibility"
	"ldiv/internal/table"
)

// Family is one named dataset family of the scenario corpus.
type Family struct {
	// Name is the registry key (lower-case kebab), stable across PRs: it is
	// part of the datagen/ldivbench CLI contract and the README catalog.
	Name string
	// Description is the one-line property statement shown by -list flags
	// and the README catalog.
	Description string
	// Generate builds a table of the family. Same Config, same table.
	Generate func(cfg Config) (*table.Table, error)
	// Validate asserts the family's advertised property holds on a table
	// Generate produced under cfg. A nil error is the self-check passing.
	Validate func(t *table.Table, cfg Config) error
}

// The corpus catalog, in registration order (the order Families reports and
// the README documents). The two census families, the tables every figure
// runs on, come first.
var families = []*Family{
	{
		Name:        "sal",
		Description: "census SAL: seven Table-6 QI attributes, Income (50 values) sensitive, Zipf marginals",
		Generate:    func(cfg Config) (*table.Table, error) { return generate(cfg, "Income", IncomeCardinality) },
		Validate:    validateCensus,
	},
	{
		Name:        "occ",
		Description: "census OCC: the same QI attributes with Occupation (50 values) sensitive",
		Generate:    func(cfg Config) (*table.Table, error) { return generate(cfg, "Occupation", OccupationCardinality) },
		Validate:    validateCensus,
	},
	{
		Name:        "corr-sa",
		Description: "SA predictable from the first QI column at tunable correlation strength (hard case for l-diversity)",
		Generate:    generateCorrSA,
		Validate:    validateCorrSA,
	},
	{
		Name:        "heavytail-sa",
		Description: "thousands of distinct sensitive values under Zipf skew (stresses dense SA arrays and greedy cover)",
		Generate:    generateHeavyTailSA,
		Validate:    validateHeavyTailSA,
	},
	{
		Name:        "deep-taxonomy",
		Description: "large clustered QI domains whose default fanout hierarchies are deep and unbalanced (stresses TDS/Mondrian/Incognito)",
		Generate:    generateDeepTaxonomy,
		Validate:    validateDeepTaxonomy,
	},
	{
		Name:        "near-duplicate",
		Description: "rows clustered on few QI signatures with one-off perturbations (stresses radix grouping and audit group re-derivation)",
		Generate:    generateNearDuplicate,
		Validate:    validateNearDuplicate,
	},
	{
		Name:        "single-group",
		Description: "degenerate edge: every row shares one QI signature, so every partition is one group",
		Generate:    generateSingleGroup,
		Validate:    validateSingleGroup,
	},
	{
		Name:        "distinct-sa",
		Description: "degenerate edge: every sensitive value distinct (SA domain = n), eligible at every l up to n",
		Generate:    generateDistinctSA,
		Validate:    validateDistinctSA,
	},
	{
		Name:        "sa-card-l",
		Description: "degenerate edge: SA domain of exactly l balanced values, eligible at l and infeasible at l+1",
		Generate:    generateSACardL,
		Validate:    validateSACardL,
	},
	{
		Name:        "one-row-groups",
		Description: "degenerate edge: every QI signature unique, so the initial partition is all one-row groups",
		Generate:    generateOneRowGroups,
		Validate:    validateOneRowGroups,
	},
}

// familyIndex maps Name -> Family; built once at init from the ordered slice.
var familyIndex = func() map[string]*Family {
	idx := make(map[string]*Family, len(families))
	for _, f := range families {
		if f.Name != strings.ToLower(f.Name) || f.Generate == nil || f.Validate == nil {
			panic("dataset: malformed family " + f.Name)
		}
		if _, dup := idx[f.Name]; dup {
			panic("dataset: duplicate family " + f.Name)
		}
		idx[f.Name] = f
	}
	return idx
}()

// Families lists the corpus catalog names in registration order.
func Families() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.Name
	}
	return names
}

// Catalog returns the families themselves, in registration order. Callers
// must not mutate the returned entries.
func Catalog() []*Family {
	out := make([]*Family, len(families))
	copy(out, families)
	return out
}

// Lookup returns the named family (names are case-insensitive).
func Lookup(name string) (*Family, bool) {
	f, ok := familyIndex[strings.ToLower(name)]
	return f, ok
}

// Generate builds a table of the named family.
func Generate(name string, cfg Config) (*table.Table, error) {
	f, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("dataset: unknown family %q (want one of %s)", name, strings.Join(Families(), ", "))
	}
	return f.Generate(cfg)
}

// GenerateValidated builds a table of the named family and runs the family's
// Validate self-check on it before returning, so callers that feed harnesses
// get the advertised property or an error — never a silently degenerate
// table.
func GenerateValidated(name string, cfg Config) (*table.Table, error) {
	f, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("dataset: unknown family %q (want one of %s)", name, strings.Join(Families(), ", "))
	}
	t, err := f.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if err := f.Validate(t, cfg); err != nil {
		return nil, fmt.Errorf("dataset: family %s failed its self-check: %w", f.Name, err)
	}
	return t, nil
}

// checkRows is the shared Config validation of every generator.
func checkRows(cfg Config) error {
	if cfg.Rows <= 0 {
		return fmt.Errorf("dataset: Rows must be positive, got %d", cfg.Rows)
	}
	return nil
}

// validateCensus is the self-check of the sal/occ families: the Table-6
// QI domains and an SA marginal bounded enough to stay eligible across the
// evaluation's l range.
func validateCensus(t *table.Table, cfg Config) error {
	if t.Dimensions() != len(QINames) {
		return fmt.Errorf("census table has %d QI attributes, want %d", t.Dimensions(), len(QINames))
	}
	for j := 0; j < t.Dimensions(); j++ {
		a := t.Schema().QI(j)
		if a.Name() != QINames[j] || a.Cardinality() != QICardinalities[j] {
			return fmt.Errorf("QI attribute %d is %q/%d, want %q/%d",
				j, a.Name(), a.Cardinality(), QINames[j], QICardinalities[j])
		}
	}
	if got := t.SADomainSize(); got != IncomeCardinality {
		return fmt.Errorf("SA domain size %d, want %d", got, IncomeCardinality)
	}
	if t.Len() != cfg.Rows {
		return fmt.Errorf("generated %d rows, want %d", t.Len(), cfg.Rows)
	}
	// Tiny samples of a 50-value domain are eligibility noise, not a
	// generator property; the bound is asserted once the law of large
	// numbers has something to say.
	if t.Len() >= 100 && !eligibility.IsEligibleTable(t, 4) {
		return fmt.Errorf("census table is not even 4-eligible; SA skew too extreme")
	}
	return nil
}

// ---- corr-sa ----------------------------------------------------------

// corrSACard is the shared domain size of the first QI column and the
// sensitive attribute, so the correlation map can be a bijection.
const corrSACard = 30

// defaultCorrelation is the corr-sa family's correlation strength when the
// Config leaves it zero.
const defaultCorrelation = 0.85

func corrStrength(cfg Config) (float64, error) {
	rho := cfg.Correlation
	if rho == 0 {
		rho = defaultCorrelation
	}
	if rho < 0 || rho > 1 {
		return 0, fmt.Errorf("dataset: Correlation must be in [0,1], got %v", cfg.Correlation)
	}
	return rho, nil
}

// generateCorrSA draws the sensitive value as a fixed bijective image of the
// first QI column with probability rho, and uniformly otherwise: within a
// QI-group aligned with that column the SA distribution concentrates on one
// value, which is exactly the regime where l-diversity must suppress.
func generateCorrSA(cfg Config) (*table.Table, error) {
	if err := checkRows(cfg); err != nil {
		return nil, err
	}
	rho, err := corrStrength(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	qi := []*table.Attribute{
		table.NewIntegerAttribute("Region", corrSACard),
		table.NewIntegerAttribute("Segment", 8),
		table.NewIntegerAttribute("Channel", 12),
		table.NewIntegerAttribute("Tier", 5),
	}
	sa := table.NewIntegerAttribute("Condition", corrSACard)
	t := table.NewWithCapacity(table.MustSchema(qi, sa), cfg.Rows)

	image := rng.Perm(corrSACard) // the Region -> Condition bijection
	segment := newZipfShuffled(rng, 1.3, 8)
	channel := newZipfShuffled(rng, 1.2, 12)
	row := make([]int, len(qi))
	for i := 0; i < cfg.Rows; i++ {
		r := rng.Intn(corrSACard)
		row[0], row[1], row[2], row[3] = r, segment.sample(rng), channel.sample(rng), rng.Intn(5)
		s := rng.Intn(corrSACard)
		if rng.Float64() < rho {
			s = image[r]
		}
		t.MustAppendRow(row, s)
	}
	return t, nil
}

// validateCorrSA re-derives the correlation strength without knowing the
// bijection: the modal sensitive value per first-QI-column value must
// capture the configured fraction of the rows — and the SA marginal itself
// must stay flat, so the predictability really comes from the QI column and
// the table stays 4-eligible.
func validateCorrSA(t *table.Table, cfg Config) error {
	rho, err := corrStrength(cfg)
	if err != nil {
		return err
	}
	n := t.Len()
	if n == 0 {
		return fmt.Errorf("empty table")
	}
	card := t.Schema().QI(0).Cardinality()
	joint := make([]int, card*t.SADomainSize())
	for i := 0; i < n; i++ {
		joint[t.QIAt(i, 0)*t.SADomainSize()+t.SAValue(i)]++
	}
	hits := 0
	for v := 0; v < card; v++ {
		modal := 0
		for s := 0; s < t.SADomainSize(); s++ {
			if c := joint[v*t.SADomainSize()+s]; c > modal {
				modal = c
			}
		}
		hits += modal
	}
	frac := float64(hits) / float64(n)
	// The modal estimate sees rho plus the uniform draws that land on the
	// image by chance; margin widens on small samples.
	margin := 0.08
	if n < 1000 {
		margin = 0.12
	}
	if frac < rho-margin {
		return fmt.Errorf("QI0->SA predictability %.3f below the configured correlation %.2f", frac, rho)
	}
	if rho < 1 && frac > rho+margin+(1-rho)/float64(corrSACard) {
		return fmt.Errorf("QI0->SA predictability %.3f exceeds the configured correlation %.2f: noise channel missing", frac, rho)
	}
	if max := eligibility.MaxFrequencyCounts(t.SACounts()); max > n/4 {
		return fmt.Errorf("SA marginal too skewed for the corpus l range: max frequency %d of %d rows", max, n)
	}
	return nil
}

// ---- heavytail-sa -----------------------------------------------------

// defaultHeavyTailSACard is the sensitive domain size when Config.SACard is
// zero: thousands of values, most of them rare.
const defaultHeavyTailSACard = 2500

func heavyTailCard(cfg Config) (int, error) {
	card := cfg.SACard
	if card == 0 {
		card = defaultHeavyTailSACard
	}
	if card < 16 {
		return 0, fmt.Errorf("dataset: SACard must be at least 16, got %d", cfg.SACard)
	}
	return card, nil
}

// generateHeavyTailSA draws the sensitive value from a shuffled Zipf over a
// domain of thousands of values: a heavy head that dominates eligibility and
// a long tail of near-singletons, the shape that stresses phase-3 greedy
// cover and every dense SA-code array.
func generateHeavyTailSA(cfg Config) (*table.Table, error) {
	if err := checkRows(cfg); err != nil {
		return nil, err
	}
	card, err := heavyTailCard(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	qi := []*table.Attribute{
		table.NewIntegerAttribute("Site", 24),
		table.NewIntegerAttribute("Device", 12),
		table.NewIntegerAttribute("Channel", 6),
	}
	sa := table.NewIntegerAttribute("Token", card)
	t := table.NewWithCapacity(table.MustSchema(qi, sa), cfg.Rows)

	site := newZipfShuffled(rng, 1.3, 24)
	device := newZipfShuffled(rng, 1.2, 12)
	// Exponent close to 1 keeps the head below a quarter of the mass, so the
	// table stays 4-eligible while the tail stays enormous.
	tail := newZipfShuffled(rng, 1.05, card)
	row := make([]int, len(qi))
	for i := 0; i < cfg.Rows; i++ {
		row[0], row[1], row[2] = site.sample(rng), device.sample(rng), rng.Intn(6)
		t.MustAppendRow(row, tail.sample(rng))
	}
	return t, nil
}

// validateHeavyTailSA asserts the two halves of the property: genuinely many
// distinct sensitive values, and genuine skew (the heaviest value far above
// the mean), without breaking 4-eligibility.
func validateHeavyTailSA(t *table.Table, cfg Config) error {
	card, err := heavyTailCard(cfg)
	if err != nil {
		return err
	}
	if got := t.SADomainSize(); got != card {
		return fmt.Errorf("SA domain size %d, want %d", got, card)
	}
	counts := t.SACounts()
	distinct, max := 0, 0
	for _, c := range counts {
		if c > 0 {
			distinct++
		}
		if c > max {
			max = c
		}
	}
	n := t.Len()
	wantDistinct := min(n/8, card/8)
	if wantDistinct < 8 {
		wantDistinct = 8
	}
	if distinct < wantDistinct {
		return fmt.Errorf("only %d distinct sensitive values over %d rows, want at least %d", distinct, n, wantDistinct)
	}
	if mean := (n + distinct - 1) / distinct; max < 2*mean {
		return fmt.Errorf("no skew: max frequency %d under twice the mean %d", max, mean)
	}
	if !eligibility.IsEligibleCounts(counts, 4) {
		return fmt.Errorf("head too heavy: table is not 4-eligible (max frequency %d of %d rows)", max, n)
	}
	return nil
}

// ---- deep-taxonomy ----------------------------------------------------

// deepTaxonomyCards are the QI domain sizes; at the default fanout-4
// hierarchies of TDS and Incognito they give generalization trees 3-4 levels
// deep, and the clustered generator below fills them unevenly.
var deepTaxonomyCards = [3]int{256, 81, 64}

// generateDeepTaxonomy concentrates most of the mass of each large QI domain
// in a narrow low-code range (one deep subtree of the default hierarchy)
// while spraying the rest across the full domain: the generalization-based
// algorithms must then cut deep on the hot subtree and shallow elsewhere.
func generateDeepTaxonomy(cfg Config) (*table.Table, error) {
	if err := checkRows(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	qi := []*table.Attribute{
		table.NewIntegerAttribute("Code", deepTaxonomyCards[0]),
		table.NewIntegerAttribute("Branch", deepTaxonomyCards[1]),
		table.NewIntegerAttribute("Leaf", deepTaxonomyCards[2]),
	}
	sa := table.NewIntegerAttribute("Outcome", 20)
	t := table.NewWithCapacity(table.MustSchema(qi, sa), cfg.Rows)

	saSampler := newWeightedSampler(rng, 20, 6)
	hot := func(card int, hotP float64) int {
		if rng.Float64() < hotP {
			return rng.Intn(card / 16)
		}
		return rng.Intn(card)
	}
	row := make([]int, len(qi))
	for i := 0; i < cfg.Rows; i++ {
		row[0] = hot(deepTaxonomyCards[0], 0.70)
		row[1] = hot(deepTaxonomyCards[1], 0.60)
		row[2] = hot(deepTaxonomyCards[2], 0.50)
		t.MustAppendRow(row, saSampler.sample(rng))
	}
	return t, nil
}

// validateDeepTaxonomy asserts depth (large domains), imbalance (the hot
// sixteenth of the first domain holds most rows) and spread (the cold rows
// still cover a healthy slice of the domain).
func validateDeepTaxonomy(t *table.Table, cfg Config) error {
	n := t.Len()
	if n == 0 {
		return fmt.Errorf("empty table")
	}
	for j, want := range deepTaxonomyCards {
		if got := t.Schema().QI(j).Cardinality(); got != want {
			return fmt.Errorf("QI attribute %d cardinality %d, want %d", j, got, want)
		}
	}
	card := deepTaxonomyCards[0]
	hotCut := card / 16
	hotRows := 0
	seen := make([]bool, card)
	distinct := 0
	for i := 0; i < n; i++ {
		v := t.QIAt(i, 0)
		if v < hotCut {
			hotRows++
		}
		if !seen[v] {
			seen[v] = true
			distinct++
		}
	}
	if frac := float64(hotRows) / float64(n); frac < 0.55 {
		return fmt.Errorf("hot subtree holds only %.2f of the rows, want an unbalanced >= 0.55", frac)
	}
	wantDistinct := min(card/8, n/4)
	if distinct < wantDistinct {
		return fmt.Errorf("first QI attribute uses %d of %d values, want at least %d", distinct, card, wantDistinct)
	}
	if !eligibility.IsEligibleTable(t, 4) {
		return fmt.Errorf("table is not 4-eligible")
	}
	return nil
}

// ---- near-duplicate ---------------------------------------------------

// generateNearDuplicate clusters the rows on a small pool of base QI
// signatures, Zipf-weighted so a few signatures dominate, and perturbs a
// quarter of the draws by +1 in one column: massive exact-duplicate runs for
// the radix grouping path, plus adjacent signatures that merge once any
// generalization coarsens the perturbed column.
func generateNearDuplicate(cfg Config) (*table.Table, error) {
	if err := checkRows(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cards := []int{16, 8, 6, 4}
	qi := make([]*table.Attribute, len(cards))
	names := []string{"A", "B", "C", "D"}
	for j, c := range cards {
		qi[j] = table.NewIntegerAttribute(names[j], c)
	}
	sa := table.NewIntegerAttribute("Label", 16)
	t := table.NewWithCapacity(table.MustSchema(qi, sa), cfg.Rows)

	sigCount := cfg.Rows / 24
	if sigCount < 4 {
		sigCount = 4
	}
	sigs := make([][]int, sigCount)
	for s := range sigs {
		sig := make([]int, len(cards))
		for j, c := range cards {
			sig[j] = rng.Intn(c)
		}
		sigs[s] = sig
	}
	pick := newZipfShuffled(rng, 1.3, sigCount)
	saSampler := newWeightedSampler(rng, 16, 8)
	row := make([]int, len(cards))
	for i := 0; i < cfg.Rows; i++ {
		copy(row, sigs[pick.sample(rng)])
		if rng.Intn(4) == 0 {
			j := rng.Intn(len(cards))
			row[j] = (row[j] + 1) % cards[j]
		}
		t.MustAppendRow(row, saSampler.sample(rng))
	}
	return t, nil
}

// validateNearDuplicate asserts heavy duplication: far fewer distinct QI
// signatures than rows, with at least one signature repeated many times.
func validateNearDuplicate(t *table.Table, cfg Config) error {
	n := t.Len()
	if n == 0 {
		return fmt.Errorf("empty table")
	}
	groups := t.GroupByQI()
	largest := 0
	for _, g := range groups {
		if len(g) > largest {
			largest = len(g)
		}
	}
	if dup := n / len(groups); dup < 3 {
		return fmt.Errorf("duplication factor %d (rows %d over %d signatures), want >= 3", dup, n, len(groups))
	}
	if want := n / 50; largest < max(want, 2) {
		return fmt.Errorf("largest signature run %d, want at least %d", largest, max(want, 2))
	}
	if !eligibility.IsEligibleTable(t, 4) {
		return fmt.Errorf("table is not 4-eligible")
	}
	return nil
}

// ---- degenerate edges -------------------------------------------------

// generateSingleGroup emits one constant QI signature: every partition of
// the table is a single group, so algorithms must handle the no-choice case
// and auditors the one-group release.
func generateSingleGroup(cfg Config) (*table.Table, error) {
	if err := checkRows(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	qi := []*table.Attribute{
		table.NewIntegerAttribute("X", 4),
		table.NewIntegerAttribute("Y", 3),
		table.NewIntegerAttribute("Z", 2),
	}
	sa := table.NewIntegerAttribute("Status", 8)
	t := table.NewWithCapacity(table.MustSchema(qi, sa), cfg.Rows)
	perm := rng.Perm(8)
	row := []int{0, 0, 0}
	for i := 0; i < cfg.Rows; i++ {
		t.MustAppendRow(row, perm[i%8])
	}
	return t, nil
}

func validateSingleGroup(t *table.Table, cfg Config) error {
	if t.Len() == 0 {
		return fmt.Errorf("empty table")
	}
	if groups := t.GroupByQI(); len(groups) != 1 {
		return fmt.Errorf("%d QI signatures, want exactly 1", len(groups))
	}
	if maxL := eligibility.MaxEligibleL(t); maxL < 4 {
		return fmt.Errorf("max eligible l is %d, want >= 4 (round-robin SA drifted)", maxL)
	}
	return nil
}

// generateDistinctSA gives every row its own sensitive value (SA domain size
// exactly n): every group of every size is l-diverse for every l up to its
// size, the opposite extreme from sa-card-l.
func generateDistinctSA(cfg Config) (*table.Table, error) {
	if err := checkRows(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	qi := []*table.Attribute{
		table.NewIntegerAttribute("P", 6),
		table.NewIntegerAttribute("Q", 4),
	}
	sa := table.NewIntegerAttribute("Token", cfg.Rows)
	t := table.NewWithCapacity(table.MustSchema(qi, sa), cfg.Rows)
	perm := rng.Perm(cfg.Rows)
	row := make([]int, 2)
	for i := 0; i < cfg.Rows; i++ {
		row[0], row[1] = rng.Intn(6), rng.Intn(4)
		t.MustAppendRow(row, perm[i])
	}
	return t, nil
}

func validateDistinctSA(t *table.Table, cfg Config) error {
	n := t.Len()
	if n == 0 {
		return fmt.Errorf("empty table")
	}
	if got := t.SADomainSize(); got != n {
		return fmt.Errorf("SA domain size %d, want exactly n = %d", got, n)
	}
	for _, c := range t.SACounts() {
		if c > 1 {
			return fmt.Errorf("a sensitive value occurs %d times, want all distinct", c)
		}
	}
	if maxL := eligibility.MaxEligibleL(t); maxL != n {
		return fmt.Errorf("max eligible l is %d, want n = %d", maxL, n)
	}
	return nil
}

// defaultEdgeL parameterizes sa-card-l when Config.L is zero.
const defaultEdgeL = 3

func edgeL(cfg Config) (int, error) {
	l := cfg.L
	if l == 0 {
		l = defaultEdgeL
	}
	if l < 2 {
		return 0, fmt.Errorf("dataset: L must be at least 2, got %d", cfg.L)
	}
	return l, nil
}

// generateSACardL emits a sensitive domain of exactly l perfectly balanced
// values: the table is l-eligible with zero slack and (l+1)-infeasible. Rows
// are rounded down to a multiple of l so the balance is exact.
func generateSACardL(cfg Config) (*table.Table, error) {
	if err := checkRows(cfg); err != nil {
		return nil, err
	}
	l, err := edgeL(cfg)
	if err != nil {
		return nil, err
	}
	rows := cfg.Rows - cfg.Rows%l
	if rows == 0 {
		return nil, fmt.Errorf("dataset: need at least L=%d rows, got %d", l, cfg.Rows)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	qi := []*table.Attribute{
		table.NewIntegerAttribute("U", 8),
		table.NewIntegerAttribute("V", 5),
	}
	sa := table.NewIntegerAttribute("Class", l)
	t := table.NewWithCapacity(table.MustSchema(qi, sa), rows)
	u := newZipfShuffled(rng, 1.2, 8)
	perm := rng.Perm(l)
	row := make([]int, 2)
	for i := 0; i < rows; i++ {
		row[0], row[1] = u.sample(rng), rng.Intn(5)
		t.MustAppendRow(row, perm[i%l])
	}
	return t, nil
}

func validateSACardL(t *table.Table, cfg Config) error {
	l, err := edgeL(cfg)
	if err != nil {
		return err
	}
	if t.Len() == 0 {
		return fmt.Errorf("empty table")
	}
	if got := t.SADomainSize(); got != l {
		return fmt.Errorf("SA domain size %d, want exactly l = %d", got, l)
	}
	if maxL := eligibility.MaxEligibleL(t); maxL != l {
		return fmt.Errorf("max eligible l is %d, want exactly %d (balance broken)", maxL, l)
	}
	return nil
}

// generateOneRowGroups makes every QI signature unique (the first column is
// the row index), so the initial grouping is n one-row groups and every
// algorithm must merge everything it publishes.
func generateOneRowGroups(cfg Config) (*table.Table, error) {
	if err := checkRows(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	qi := []*table.Attribute{
		table.NewIntegerAttribute("ID", cfg.Rows),
		table.NewIntegerAttribute("Noise", 12),
	}
	sa := table.NewIntegerAttribute("Label", 12)
	t := table.NewWithCapacity(table.MustSchema(qi, sa), cfg.Rows)
	saSampler := newWeightedSampler(rng, 12, 10)
	row := make([]int, 2)
	for i := 0; i < cfg.Rows; i++ {
		row[0], row[1] = i, rng.Intn(12)
		t.MustAppendRow(row, saSampler.sample(rng))
	}
	return t, nil
}

func validateOneRowGroups(t *table.Table, cfg Config) error {
	n := t.Len()
	if n == 0 {
		return fmt.Errorf("empty table")
	}
	if groups := t.GroupByQI(); len(groups) != n {
		return fmt.Errorf("%d QI signatures over %d rows, want every signature unique", len(groups), n)
	}
	if !eligibility.IsEligibleTable(t, 4) {
		return fmt.Errorf("table is not 4-eligible")
	}
	return nil
}
