// Tests that sketch-refine partition health surfaces over HTTP: cluster
// count, imbalance, the incremental/recluster maintenance split, and the
// per-search refine counters, in both /healthz and GET /catalog.
package server

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"toppkg/internal/catalog"
	"toppkg/internal/core"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/search"
	"toppkg/internal/session"
)

func partitionedServer(t *testing.T) (*catalog.Catalog, *httptest.Server) {
	t.Helper()
	p := feature.SimpleProfile(feature.AggSum, feature.AggMax)
	cat, err := catalog.New(catalog.Config{
		Profile:        p,
		MaxPackageSize: 3,
		Items:          dataset.UNI(40, 2, rand.New(rand.NewSource(77))),
		Coalesce:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cat.Current().Index.EnsurePartition(3)
	sh, err := core.NewLiveShared(core.Config{
		K:           3,
		RandomCount: 2,
		SampleCount: 60,
		Seed:        4,
		Search:      search.Options{MaxQueue: 32, MaxAccessed: 100},
	}, cat)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := session.NewManager(session.Config{Shared: sh, Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(mgr, Options{Catalog: cat}))
	t.Cleanup(ts.Close)
	return cat, ts
}

type partitionStatsWire struct {
	PartitionClusters    int     `json:"partition_clusters"`
	PartitionImbalance   float64 `json:"partition_imbalance"`
	PartitionIncremental int64   `json:"partition_incremental"`
	PartitionReclusters  int64   `json:"partition_reclusters"`
	PartitionSearches    int64   `json:"partition_searches"`
	SketchSkipped        int64   `json:"sketch_skipped"`
	RefineClustersOpened int64   `json:"refine_clusters_opened"`
}

func TestPartitionStatsSurface(t *testing.T) {
	cat, ts := partitionedServer(t)
	// Engage the partition with a beamed monotone-utility search, then push
	// one delta batch through so incremental maintenance has run.
	ep := cat.Current()
	u, err := feature.NewUtility(ep.Space.Profile, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Index.TopK(u, search.Options{K: 3, MaxQueue: 32, MaxAccessed: 100}); err != nil {
		t.Fatal(err)
	}
	v := func(x float64) *float64 { return &x }
	resp := postJSON(t, ts.URL+"/catalog/items?wait=1", UpsertRequest{Items: []ItemJSON{
		{ID: 500, Name: "new", Values: []*float64{v(0.9), v(0.4)}},
	}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /catalog/items?wait=1 = %d", resp.StatusCode)
	}

	var cs partitionStatsWire
	if resp := getJSON(t, ts.URL+"/catalog", &cs); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /catalog = %d", resp.StatusCode)
	}
	if cs.PartitionClusters != 3 || cs.PartitionImbalance < 1 {
		t.Fatalf("GET /catalog partition shape = %+v", cs)
	}
	if cs.PartitionIncremental+cs.PartitionReclusters != 1 {
		t.Fatalf("GET /catalog maintenance split = %+v, want exactly one delta maintained", cs)
	}
	if cs.PartitionSearches == 0 {
		t.Fatalf("GET /catalog search counters = %+v, want engaged searches", cs)
	}

	var hz struct {
		Catalog partitionStatsWire `json:"catalog"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	if hz.Catalog != cs {
		t.Fatalf("healthz partition stats %+v != GET /catalog %+v", hz.Catalog, cs)
	}
}
