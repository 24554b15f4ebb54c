package campaign

import (
	"errors"
	"fmt"
	"net/http"

	"jayanti98/internal/obs"
)

// maxSpecBytes bounds a campaign spec's body (413 beyond it). Specs are a
// few hundred bytes; the bound keeps one client from growing the server
// without limit.
const maxSpecBytes = 1 << 20

// RegisterRoutes mounts the campaign API on mux:
//
//	POST   /v1/campaigns      start a campaign; idempotent on the content hash
//	GET    /v1/campaigns      list campaigns (findings elided)
//	GET    /v1/campaigns/{id} one campaign's stats and findings
//	DELETE /v1/campaigns/{id} stop a campaign (waits for the final checkpoint)
//
// Everything is JSON; errors are {"error": "..."} with a matching status
// code, the job API's conventions.
func RegisterRoutes(mux *http.ServeMux, m *Manager) {
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if code, err := obs.DecodeBody(w, r, maxSpecBytes, &spec); err != nil {
			obs.WriteError(w, code, fmt.Errorf("decoding campaign spec: %w", err))
			return
		}
		view, created, err := m.Start(&spec)
		switch {
		case errors.Is(err, ErrShuttingDown):
			obs.WriteError(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			obs.WriteError(w, http.StatusBadRequest, err)
			return
		}
		// A brand-new campaign answers 201; attaching to (or restarting)
		// an existing one answers 200 — the idempotency signal.
		code := http.StatusOK
		if created {
			code = http.StatusCreated
		}
		obs.WriteJSON(w, code, view)
	})

	mux.HandleFunc("GET /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, struct {
			Campaigns []View `json:"campaigns"`
		}{m.List()})
	})

	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		view, ok := m.Get(r.PathValue("id"))
		if !ok {
			obs.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
			return
		}
		obs.WriteJSON(w, http.StatusOK, view)
	})

	mux.HandleFunc("DELETE /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		view, ok := m.Stop(r.PathValue("id"))
		if !ok {
			obs.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
			return
		}
		obs.WriteJSON(w, http.StatusOK, view)
	})
}
