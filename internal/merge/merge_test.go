package merge

import (
	"errors"
	"testing"
)

func TestIncompatiblefWraps(t *testing.T) {
	err := Incompatiblef("width %d vs %d", 4, 8)
	if !errors.Is(err, ErrIncompatible) {
		t.Fatal("Incompatiblef does not wrap ErrIncompatible")
	}
	if got := err.Error(); got != "width 4 vs 8: merge: incompatible summaries" {
		t.Fatalf("unexpected message %q", got)
	}
}
