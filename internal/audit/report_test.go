package audit

import "testing"

// TestReporterFormatsOnlyRecordedViolations checks that a violation past the
// recording cap is counted but its message is never built.
func TestReporterFormatsOnlyRecordedViolations(t *testing.T) {
	rep := newReporter(KindGeneralized, Options{L: 2, MaxViolations: 1}, 0)
	rep.add(ViolationMalformed, -1, 0, func() string { return "recorded" })
	rep.add(ViolationFrequency, 0, -1, func() string {
		t.Fatal("formatted a violation past the cap")
		return ""
	})
	r := rep.finish()
	if r.ViolationCount != 2 || !r.Truncated || len(r.Violations) != 1 || r.Violations[0].Message != "recorded" {
		t.Fatalf("report %+v", r)
	}
	if r.Privacy || r.Fidelity {
		t.Fatalf("an uncounted violation: privacy=%v fidelity=%v", r.Privacy, r.Fidelity)
	}
}
