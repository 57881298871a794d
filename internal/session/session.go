// Per-session state and identity rules. A Session pairs one core.Engine
// with its own mutex; the engine is single-threaded by design (§2.2's
// per-user elicitation loop), so the mutex serializes one user's requests
// while different sessions proceed in parallel.
package session

import (
	"container/list"
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"toppkg/internal/core"
)

// ErrBadID is returned for session IDs failing ValidID.
var ErrBadID = errors.New("session: invalid session id")

// ErrNotFound is returned when an operation names a session that is
// neither resident nor snapshotted.
var ErrNotFound = errors.New("session: not found")

// MaxIDLen is the maximum session ID length accepted by ValidID.
const MaxIDLen = 64

// ValidID reports whether id is acceptable as a session key: 1..MaxIDLen
// characters from [A-Za-z0-9._-], not starting with a dot. IDs double as
// snapshot file names, so the rule is deliberately path-safe.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > MaxIDLen || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// SeedFor derives a deterministic, non-zero engine seed from a session ID
// (FNV-1a), so a session restarted from scratch replays the same random
// stream.
func SeedFor(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}

// session is one resident elicitation session. The mutex guards eng and
// gone; elem and lastUsed are guarded by the manager's mutex. feedback
// mirrors eng's preference count so listings never block behind a
// session's in-flight engine work.
type session struct {
	id string

	mu   sync.Mutex
	eng  *core.Engine
	gone bool // evicted or deleted: eng must not be used, caller retries

	feedback atomic.Int64

	elem     *list.Element
	lastUsed time.Time
}

// Info describes one resident session for listings.
type Info struct {
	// ID is the session key.
	ID string `json:"id"`
	// LastUsed is when the session last served a request.
	LastUsed time.Time `json:"last_used"`
	// Feedback is the session's recorded preference count.
	Feedback int `json:"feedback"`
}
