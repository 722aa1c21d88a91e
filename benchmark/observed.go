package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"nbr"
)

// debugDoc is the part of the Runtime.Debug() JSON document the observed
// pass reads: the counters no public getter splits per window, and the
// flight recorder's histogram quantiles.
type debugDoc struct {
	ForcedRounds   uint64 `json:"forced_rounds"`
	OrphansAdopted uint64 `json:"orphans_adopted"`
	Stats          struct {
		Signals uint64
	} `json:"stats"`
	Recorder struct {
		Enabled bool `json:"enabled"`
		Hists   []struct {
			Name  string `json:"name"`
			Count uint64 `json:"count"`
			P50ns int64  `json:"p50_ns"`
			P99ns int64  `json:"p99_ns"`
		} `json:"hists"`
	} `json:"recorder"`
}

// scrapeDebug performs one GET against the handler a service would mount at
// /debug/nbr.
func scrapeDebug(rt *nbr.Runtime) (*debugDoc, error) {
	rec := httptest.NewRecorder()
	rt.Debug().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/nbr", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d", rec.Code)
	}
	var doc debugDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return nil, err
	}
	if !doc.Recorder.Enabled {
		return nil, fmt.Errorf("recorder reported disabled during the observed pass")
	}
	return &doc, nil
}

// histUs returns the p50 and p99 of a recorder histogram in microseconds
// (power-of-two bucket edges), or zeros when it recorded nothing.
func (d *debugDoc) histUs(name string) (p50, p99 float64) {
	for _, h := range d.Recorder.Hists {
		if h.Name == name && h.Count > 0 {
			return float64(h.P50ns) / 1e3, float64(h.P99ns) / 1e3
		}
	}
	return 0, 0
}
