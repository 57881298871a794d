package main

import (
	"strings"
	"testing"
)

// TestValidatePartitionFlags pins the rejection paths: an imbalance
// threshold below 1 must fail fast at startup (catalog.New enforces the
// same bound, but the flag error names the flag, not the config field),
// and so must either partition flag given without -mutable-catalog, which
// a static catalogue would silently ignore.
func TestValidatePartitionFlags(t *testing.T) {
	for _, bad := range []float64{0.5, 0, -1} {
		if err := validatePartitionFlags(bad, true, nil); err == nil {
			t.Errorf("validatePartitionFlags(%g) accepted an unsatisfiable threshold", bad)
		}
	}
	for _, good := range []float64{1, 1.5, 4, 100} {
		if err := validatePartitionFlags(good, true, nil); err != nil {
			t.Errorf("validatePartitionFlags(%g) = %v, want nil", good, err)
		}
	}
	for _, name := range []string{"partition-clusters", "partition-recluster-imbalance"} {
		set := map[string]bool{name: true, "items": true}
		if err := validatePartitionFlags(1.5, false, set); err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("-%s on a static catalogue: err = %v, want an error naming the flag", name, err)
		}
		if err := validatePartitionFlags(1.5, true, set); err != nil {
			t.Errorf("-%s with -mutable-catalog = %v, want nil", name, err)
		}
	}
	if err := validatePartitionFlags(1.5, false, map[string]bool{"items": true}); err != nil {
		t.Errorf("static catalogue, no partition flag = %v, want nil", err)
	}
}
