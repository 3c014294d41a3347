package repro_bench

import (
	"testing"

	"repro/internal/lint"
)

// TestFglintSelfClean runs the full fglint analyzer suite over the
// module programmatically and requires zero diagnostics: the tree must
// stay clean, and any new determinism or Snapshot-completeness violation
// fails `go test ./...` even where CI is not running the fglint step.
// (The annotation escapes — //fglint:deterministic, //fglint:preserved —
// are part of the contract; see ARCHITECTURE.md.)
func TestFglintSelfClean(t *testing.T) {
	diags, err := lint.CheckModule(".", nil, "...")
	if err != nil {
		t.Fatalf("fglint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); fix, or annotate with a reason if provably harmless", len(diags))
	}
}
