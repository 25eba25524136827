package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// updateAllocSlack bounds what one POST /v1/update may allocate on the
// fuzz service beyond a multiple of its body: the repair of a 300-node
// sample, whatever the batch declares.
const updateAllocSlack = 16 << 20

// FuzzUpdateHandler drives POST /v1/update on a tiny dynamic service,
// warmed so an applied batch runs the in-place repair. Every body gets a
// 400 with a message, or a 200 whose batch applied at graph version ==
// seq (the service starts at version 0, so no body is a replay); never a
// panic, never a 5xx, and never an allocation sized by a node id or a
// count the body declares. The service must still answer /v1/seeds
// afterwards. Seeded from the bodies of the update tests.
func FuzzUpdateHandler(f *testing.F) {
	f.Add([]byte(updateBody(1, dynOps(f, dynGraph(f)))))
	f.Add([]byte(`{"seq": 2, "ops": [{"op":"explode","from":1,"to":2}]}`))
	f.Add([]byte(`{"ops": [{"op":"add","from":3,"to":7,"prob":0.5}]}`))
	f.Add([]byte(`{"seq": 1, "ops": [{"op":"remove","from":4294967295,"to":0}]}`))
	f.Add([]byte(`{"seq": 1, "ops": [{"op":"reweight","from":0,"to":1,"prob":-1}]}`))
	f.Add([]byte(`{"seq": 1, "ops": []}`))
	f.Add([]byte(`{"seq": 18446744073709551615, "ops": [{"op":"add","from":1,"to":2,"prob":1}]}`))
	f.Add([]byte(`{"seq": 1, "ops": [{"op":"add","from":1,"to":2,"prob":0.5}], "extra": 1}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := testService(t, Config{Graph: dynGraph(t), Dynamic: true, SketchK: -1})
		h := s.Handler()
		serve := func(path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rec
		}
		query := []byte(`{"k": 3, "eps": 0.5}`)
		if rec := serve("/v1/seeds", query); rec.Code != http.StatusOK {
			t.Fatalf("warm query: %d %s", rec.Code, rec.Body)
		}

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		rec := serve("/v1/update", body)
		runtime.ReadMemStats(&ms)
		if alloc := ms.TotalAlloc - before; alloc > 64*uint64(len(body))+updateAllocSlack {
			t.Fatalf("a %d B update body allocated %d B", len(body), alloc)
		}
		switch rec.Code {
		case http.StatusBadRequest:
			var e errBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || strings.TrimSpace(e.Error) == "" {
				t.Fatalf("400 without a message: %q", rec.Body)
			}
		case http.StatusOK:
			var res UpdateResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("200 with an undecodable body %q: %v", rec.Body, err)
			}
			if !res.Applied || res.GraphVersion != res.Seq || res.Seq != 1 {
				t.Fatalf("200 on a fresh service that did not apply at seq 1: %+v", res)
			}
		default:
			t.Fatalf("update answered %d: %s", rec.Code, rec.Body)
		}
		if rec := serve("/v1/seeds", query); rec.Code != http.StatusOK {
			t.Fatalf("query after the update: %d %s", rec.Code, rec.Body)
		}
	})
}
