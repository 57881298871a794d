package session

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"toppkg/internal/core"
)

func sampleSnapshot() *core.Snapshot {
	return &core.Snapshot{
		Version: 2,
		Preferences: []core.PreferencePair{
			{Winner: []int{1, 2}, Loser: []int{3}},
		},
		Samples: [][]float64{{0.1, -0.2}, {0.3, 0.4}},
		Weights: []float64{1, 1},
		Stats:   core.Stats{Feedback: 1},
	}
}

func testStores(t *testing.T) map[string]Store {
	t.Helper()
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMemStore(), "dir": ds}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, st := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := st.Load("alice"); !errors.Is(err, ErrNoSnapshot) {
				t.Fatalf("Load missing = %v, want ErrNoSnapshot", err)
			}
			want := sampleSnapshot()
			if err := st.Save("alice", want); err != nil {
				t.Fatal(err)
			}
			got, err := st.Load("alice")
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Preferences) != 1 || len(got.Samples) != 2 || got.Stats.Feedback != 1 {
				t.Errorf("round trip mangled snapshot: %+v", got)
			}
			removed, err := st.Delete("alice")
			if err != nil || !removed {
				t.Fatalf("Delete existing = (%v, %v), want (true, nil)", removed, err)
			}
			if _, err := st.Load("alice"); !errors.Is(err, ErrNoSnapshot) {
				t.Errorf("Load after delete = %v, want ErrNoSnapshot", err)
			}
			removed, err = st.Delete("alice")
			if err != nil || removed {
				t.Errorf("deleting missing id = (%v, %v), want (false, nil)", removed, err)
			}
		})
	}
}

func TestStoreOverwrite(t *testing.T) {
	for name, st := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			first := sampleSnapshot()
			if err := st.Save("a", first); err != nil {
				t.Fatal(err)
			}
			second := sampleSnapshot()
			second.Stats.Feedback = 9
			if err := st.Save("a", second); err != nil {
				t.Fatal(err)
			}
			got, err := st.Load("a")
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.Feedback != 9 {
				t.Errorf("overwrite lost: Feedback = %d", got.Stats.Feedback)
			}
		})
	}
}

func TestDirStoreRejectsUnsafeIDs(t *testing.T) {
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"../escape", "a/b", ".dot", ""} {
		if err := ds.Save(id, sampleSnapshot()); !errors.Is(err, ErrBadID) {
			t.Errorf("Save(%q) = %v, want ErrBadID", id, err)
		}
		if _, err := ds.Load(id); !errors.Is(err, ErrBadID) {
			t.Errorf("Load(%q) = %v, want ErrBadID", id, err)
		}
		if _, err := ds.Delete(id); !errors.Is(err, ErrBadID) {
			t.Errorf("Delete(%q) = %v, want ErrBadID", id, err)
		}
	}
}

func TestDirStoreRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Load("bad"); err == nil || errors.Is(err, ErrNoSnapshot) {
		t.Errorf("corrupt snapshot load = %v, want decode error", err)
	}
}

func TestDirStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Save("alice", sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	ds2, err := NewDirStore(dir) // same directory, fresh handle: durability
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds2.Load("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Feedback != 1 {
		t.Errorf("reopened snapshot: %+v", got)
	}
}

func TestNewDirStoreSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crash mid-Save: old orphaned temp files next to a fresh
	// one (possibly another process's in-flight Save) and an unrelated
	// dotfile; only the old orphans may be swept.
	stale := time.Now().Add(-2 * sweepMinAge)
	for _, name := range []string{".alice.tmp123456", ".bob.tmp7"} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, stale, stale); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, ".carol.tmp9"), []byte("in-flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Old files the sweep must NOT touch: a plain dotfile, and dotfiles
	// that contain ".tmp" but do not match Save's temp-name shape.
	for _, name := range []string{".keepme", ".notes.tmpl", ".config.tmp.bak"} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, stale, stale); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Save("alice", sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	for _, leftover := range []string{".alice.tmp123456", ".bob.tmp7"} {
		if _, err := os.Stat(filepath.Join(dir, leftover)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("orphaned temp file %s survived NewDirStore (dir: %v)", leftover, names)
		}
	}
	for _, keep := range []string{".keepme", ".notes.tmpl", ".config.tmp.bak"} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Errorf("sweep removed unrelated file %s: %v (dir: %v)", keep, err, names)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ".carol.tmp9")); err != nil {
		t.Errorf("sweep removed a fresh temp file (could be another process's in-flight save): %v", err)
	}
	if _, err := ds.Load("alice"); err != nil {
		t.Errorf("snapshot unusable after sweep+save: %v", err)
	}
}

func TestOpenStore(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		spec string
		want string // the store's type, "" for none, "error" for a rejection
	}{
		{"", ""},
		{"mem:", "*session.MemStore"},
		{"mem:extra", "error"},
		{"dir:" + dir, "*session.DirStore"},
		{"dir:", "error"},
		{filepath.Join(dir, "bare"), "*session.DirStore"}, // a bare path is DirStore shorthand
	} {
		s, err := OpenStore(tc.spec)
		got := "error"
		if err == nil {
			got = fmt.Sprintf("%T", s)
			if s == nil {
				got = ""
			}
		}
		if got != tc.want {
			t.Errorf("OpenStore(%q) = %s (%v), want %s", tc.spec, got, err, tc.want)
		}
	}
}
