package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"toppkg/internal/server"
)

// mutator is serve_churn's one writer, as loadgen.churnLoop: an 8-item
// reprice batch per tick, and every fourth batch a rotating insert or
// delete of an extra item so epochs also see the id set change. Upserts
// carry ?wait=1, so a round trip lasts from commit until the epoch
// serving the batch is current: that is visible_ms.
type mutator struct {
	be     *httpBackend
	rng    *rand.Rand
	base   int // stable ids [0, base) are repriced; [base, base+churnSlots) rotate
	batch  int
	stored [churnSlots]bool
}

// newMutator's value stream is frozen with the workload, like the dataset
// it rewrites: a run reprices every item several times over, so a stream
// drawn from the run's seed would leave every seed searching a different
// catalogue (see datasetSeed).
func newMutator(be *httpBackend, items int) *mutator {
	return &mutator{be: be, rng: rand.New(rand.NewSource(datasetSeed + 104729)), base: items}
}

func (m *mutator) values() []*float64 {
	vals := make([]*float64, stackFeatures)
	for f := range vals {
		v := m.rng.Float64()
		vals[f] = &v
	}
	return vals
}

// nextBatch builds the next batch: the upsert, and the stable id to delete
// first (-1: none).
func (m *mutator) nextBatch() (up server.UpsertRequest, del int) {
	del = -1
	for i := 0; i < churnBatch; i++ {
		up.Items = append(up.Items, server.ItemJSON{ID: m.rng.Intn(m.base), Values: m.values()})
	}
	switch m.batch % 4 {
	case 3:
		// Retire the extra item inserted two batches ago.
		if slot := (m.batch - 2) % churnSlots; m.stored[slot] {
			del = m.base + slot
			m.stored[slot] = false
		}
	case 1:
		slot := m.batch % churnSlots
		up.Items = append(up.Items, server.ItemJSON{ID: m.base + slot, Name: fmt.Sprintf("churn-%d", m.batch), Values: m.values()})
		m.stored[slot] = true
	}
	m.batch++
	return up, del
}

// step sends one batch and records it.
func (m *mutator) step(req func() int, rec *recorder) {
	up, del := m.nextBatch()
	if del >= 0 {
		m.timed(opDelete, rec, func() error {
			_, err := m.be.call(req(), "catalog.delete", http.MethodDelete, fmt.Sprintf("/catalog/items/%d", del), nil, nil)
			return err
		})
	}
	m.timed(opUpsert, rec, func() error {
		_, err := m.be.call(req(), "catalog.upsert", http.MethodPost, "/catalog/items?wait=1", up, nil)
		return err
	})
}

func (m *mutator) timed(kind opKind, rec *recorder, fn func() error) {
	start := time.Now()
	err := fn()
	rec.attempted++
	if err != nil {
		rec.failed++
		rec.invalidf("%s: %v", kind, err)
		return
	}
	rec.ms[kind] = append(rec.ms[kind], float64(time.Since(start))/float64(time.Millisecond))
}

// loop posts a batch every churnInterval until the deadline; a tick that
// falls while the previous batch is still waiting for its epoch is dropped.
func (m *mutator) loop(until time.Time, req func() int, rec *recorder) {
	tick := time.NewTicker(churnInterval)
	defer tick.Stop()
	for time.Now().Before(until) {
		<-tick.C
		m.step(req, rec)
	}
}
