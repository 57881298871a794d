// Snapshot stores back the manager's evict/restore cycle: a session pushed
// out of memory by the LRU is serialized through the core snapshot codec
// and revived on its next request, so capacity bounds residency, not the
// number of users the process can serve.
package session

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"toppkg/internal/core"
)

// ErrNoSnapshot is returned by Store.Load when no snapshot exists for the
// session ID.
var ErrNoSnapshot = errors.New("session: no snapshot")

// Store persists evicted session state keyed by session ID. Implementations
// must be safe for concurrent use; the manager never issues concurrent
// calls for the same ID, but does for different IDs.
type Store interface {
	// Save persists the snapshot, replacing any previous one for id.
	Save(id string, s *core.Snapshot) error
	// Load returns the snapshot for id, or ErrNoSnapshot.
	Load(id string) (*core.Snapshot, error)
	// Delete removes the snapshot for id, reporting whether one existed;
	// deleting a missing id is not an error.
	Delete(id string) (removed bool, err error)
}

// OpenStore resolves a store spec (cmd/serve's -store). "" returns
// (nil, nil): no persistence, matching a nil Config.Store. "dir:PATH" and a bare PATH (any other prefix included) open
// a DirStore; "mem:" opens a process-local MemStore.
func OpenStore(spec string) (Store, error) {
	if spec == "" {
		return nil, nil
	}
	switch scheme, rest, colon := strings.Cut(spec, ":"); {
	case !colon: // a bare path
	case scheme == "dir" && rest == "":
		return nil, fmt.Errorf("session: dir store needs a path (dir:/path)")
	case scheme == "dir":
		return NewDirStore(rest)
	case scheme == "mem" && rest != "":
		return nil, fmt.Errorf("session: mem store takes no argument, got %q", rest)
	case scheme == "mem":
		return NewMemStore(), nil
	}
	return NewDirStore(spec)
}

// MemStore is an in-memory Store, mainly for tests and single-process
// deployments that want eviction without durability across restarts.
type MemStore struct {
	mu sync.Mutex
	m  map[string]*core.Snapshot
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string]*core.Snapshot)} }

// Save implements Store. The snapshot is stored by reference; the manager
// never mutates a snapshot after handing it over.
func (ms *MemStore) Save(id string, s *core.Snapshot) error {
	if s == nil {
		return errors.New("session: nil snapshot")
	}
	ms.mu.Lock()
	ms.m[id] = s
	ms.mu.Unlock()
	return nil
}

// Load implements Store.
func (ms *MemStore) Load(id string) (*core.Snapshot, error) {
	ms.mu.Lock()
	s, ok := ms.m[id]
	ms.mu.Unlock()
	if !ok {
		return nil, ErrNoSnapshot
	}
	return s, nil
}

// Delete implements Store.
func (ms *MemStore) Delete(id string) (bool, error) {
	ms.mu.Lock()
	_, ok := ms.m[id]
	delete(ms.m, id)
	ms.mu.Unlock()
	return ok, nil
}

// Len reports how many snapshots the store holds.
func (ms *MemStore) Len() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return len(ms.m)
}

// DirStore persists one JSON snapshot file per session under a directory.
// IDs are validated against ValidID before touching the filesystem, so a
// session ID can never escape the directory.
type DirStore struct {
	dir string
}

// sweepMinAge is how old a temp file must be before NewDirStore treats it
// as an orphan: another process sharing the directory may have a Save in
// flight, and sweeping its live temp file would break that Save's rename.
// No healthy snapshot write stays in flight for an hour.
const sweepMinAge = time.Hour

// NewDirStore creates the directory if needed, sweeps temp files orphaned
// by writes interrupted mid-Save (a crash between CreateTemp and Rename),
// and returns a store over it.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("session: snapshot dir: %w", err)
	}
	// Orphaned temp files are invisible to Load (ValidID rejects leading
	// dots), so the sweep is purely hygiene: without it a crashy deploy
	// grows the directory without bound. Only temps past sweepMinAge go —
	// a younger one may be another process's in-flight Save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("session: snapshot dir: %w", err)
	}
	cutoff := time.Now().Add(-sweepMinAge)
	for _, e := range entries {
		if e.IsDir() || !isSaveTempName(e.Name()) {
			continue
		}
		if info, err := e.Info(); err == nil && info.ModTime().Before(cutoff) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &DirStore{dir: dir}, nil
}

// isSaveTempName matches exactly the names Save's CreateTemp produces —
// "." + id + ".tmp" + random digits — so the sweep cannot touch unrelated
// dotfiles that merely contain ".tmp" somewhere.
func isSaveTempName(name string) bool {
	if !strings.HasPrefix(name, ".") {
		return false
	}
	i := strings.LastIndex(name, ".tmp")
	if i <= 1 { // need a non-empty id between the leading dot and ".tmp"
		return false
	}
	suffix := name[i+len(".tmp"):]
	if suffix == "" {
		return false
	}
	for _, c := range suffix {
		if c < '0' || c > '9' {
			return false
		}
	}
	return ValidID(name[1:i])
}

func (ds *DirStore) path(id string) (string, error) {
	if !ValidID(id) {
		return "", fmt.Errorf("%w: %q", ErrBadID, id)
	}
	return filepath.Join(ds.dir, id+".json"), nil
}

// Save implements Store, writing atomically and durably: the temp file is
// fsynced before the rename (so the data reaches disk before the name
// does) and the directory is fsynced after (so the rename itself survives
// a crash). Without the first sync a power cut can leave a complete-
// looking snapshot file full of zeros; without the second the rename may
// simply vanish.
func (ds *DirStore) Save(id string, s *core.Snapshot) error {
	p, err := ds.path(id)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(ds.dir, "."+id+".tmp*")
	if err != nil {
		return fmt.Errorf("session: snapshot save: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := core.WriteSnapshot(tmp, s); err != nil {
		tmp.Close()
		return fmt.Errorf("session: snapshot save %s: %w", id, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("session: snapshot save %s: %w", id, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("session: snapshot save %s: %w", id, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("session: snapshot save %s: %w", id, err)
	}
	if err := syncDir(ds.dir); err != nil {
		return fmt.Errorf("session: snapshot save %s: %w", id, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Windows
// neither supports nor needs fsync on directory handles (metadata is
// durable with the file there), so it is a no-op rather than a spurious
// Save failure.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load implements Store.
func (ds *DirStore) Load(id string) (*core.Snapshot, error) {
	p, err := ds.path(id)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoSnapshot
	}
	if err != nil {
		return nil, fmt.Errorf("session: snapshot load %s: %w", id, err)
	}
	defer f.Close()
	s, err := core.ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("session: snapshot load %s: %w", id, err)
	}
	return s, nil
}

// Delete implements Store.
func (ds *DirStore) Delete(id string) (bool, error) {
	p, err := ds.path(id)
	if err != nil {
		return false, err
	}
	if err := os.Remove(p); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("session: snapshot delete %s: %w", id, err)
	}
	return true, nil
}
