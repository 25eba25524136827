package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"dimm/internal/core"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

// pairGoldenPath holds the transcript TestPairIdentityGolden pins: the
// /v1/seeds bodies of a tiny service (cold, after growth, after one
// update batch, and restored from a checkpoint then grown), plus the
// seeds, θ and certificate of core.RunDOPIMC and the seeds of
// core.RunDIIMM. Every line is a pure function of the seeds below; a
// change to how the R1/R2 pair is built, sampled, fetched or mirrored
// that moves any of them changed the answers.
const pairGoldenPath = "testdata/pair_identity.golden"

// TestPairIdentityGolden replays a fixed scenario and compares its
// transcript line by line with the recorded one.
func TestPairIdentityGolden(t *testing.T) {
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	seeds := func(tag string, h http.Handler, k int, eps float64) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"k": k, "eps": eps})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/seeds", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: POST /v1/seeds k=%d eps=%v -> %d: %s", tag, k, eps, rec.Code, rec.Body)
		}
		logf("%s k=%d eps=%v %s", tag, k, eps, strings.TrimSpace(rec.Body.String()))
	}

	// A dynamic service: cold (the first query grows from empty), after
	// a growth round, and after one update batch.
	g := dynGraph(t)
	dyn := testService(t, Config{Graph: g, Machines: 2, Dynamic: true})
	h := dyn.Handler()
	seeds("cold", h, 3, 0.6)
	seeds("grown", h, 10, 0.3)
	res, err := dyn.Update(0, dynOps(t, g))
	if err != nil {
		t.Fatal(err)
	}
	logf("update applied=%v seq=%d version=%d ops=%d repaired=%d remirrored=%v theta=%d epoch=%d",
		res.Applied, res.Seq, res.GraphVersion, res.Ops, res.Repaired, res.Remirrored, res.Theta, res.Epoch)
	seeds("updated", h, 10, 0.3)
	seeds("updated", h, 4, 0.5)

	// A checkpointed static service that grows only to θ₀, restored into
	// a second service that answers from the restored sample and then
	// grows on the epoch-salted streams.
	dir := t.TempDir()
	static := testService(t, Config{Graph: testGraph(t), Machines: 2, CheckpointDir: dir})
	seeds("checkpointed", static.Handler(), 2, 0.9)
	static.Close()
	restored := testService(t, Config{Graph: testGraph(t), Machines: 2, CheckpointDir: dir, Restore: true})
	h = restored.Handler()
	seeds("restored", h, 2, 0.9)
	seeds("restored-grown", h, 10, 0.3)

	cg := pairGoldenGraph(t)
	op, err := core.RunDOPIMC(cg, core.Options{K: 5, Eps: 0.3, Delta: 0.05, Machines: 3, Model: diffusion.IC, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	logf("dopimc seeds=%v theta=%d rounds=%d lower=%v upper=%v ratio=%v est=%v",
		op.Seeds, op.Theta, op.Rounds, op.SpreadLower, op.OptUpper, op.Ratio, op.EstSpread)
	di, err := core.RunDIIMM(cg, core.Options{K: 5, Eps: 0.3, Delta: 0.05, Machines: 3, Model: diffusion.LT, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	logf("diimm seeds=%v theta=%d", di.Seeds, di.Theta)

	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(pairGoldenPath)
	if err != nil {
		t.Fatalf("%v; transcript:\n%s", err, got)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

// pairGoldenGraph is the 400-node weighted-cascade graph the core
// drivers run on in this test.
func pairGoldenGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: 400, AvgDegree: 6, Seed: 31, UniformAttach: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wc
}
