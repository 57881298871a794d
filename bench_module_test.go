package toppkg_test

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets compiles bench/ against this checkout. bench/ is a
// module of its own, so `go build ./... && go test ./...` never see it and
// a renamed exported name would break the frozen benchmark silently.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cd bench && go vet .: %v\n%s", err, out)
	}
}
