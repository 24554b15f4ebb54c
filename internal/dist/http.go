package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"jayanti98/internal/jobs"
	"jayanti98/internal/obs"
)

// The shard pull protocol, mounted on lbserver next to the jobs API:
//
//	POST /v1/shards/lease          poll for work; 200 with a grant or 204
//	POST /v1/shards/{id}/result    upload a shard payload (content-hashed)
//	POST /v1/shards/{id}/heartbeat extend the lease
//	GET  /v1/shards                coordinator ledger snapshot
//
// Status codes carry the protocol's verdicts: 404 for a shard the
// coordinator no longer tracks (job finished or canceled — abandon), 409
// for a stale lease (the shard was re-leased — abandon), 400 for a
// corrupt upload (hash mismatch — retry the upload), 413 for a body over
// its route's limit (resending it cannot help — abandon; for a result the
// coordinator also hands the job back to the scheduler to run locally).

// LeaseRequest is the worker's poll.
type LeaseRequest struct {
	// Worker identifies the poller; liveness and lease ownership hang
	// off it. Workers must pick names unique within the fleet.
	Worker string `json:"worker"`
}

// LeaseResponse is a granted shard in wire form.
type LeaseResponse struct {
	ShardID   string     `json:"shardId"`
	Lease     int64      `json:"lease"`
	TTLMillis int64      `json:"ttlMillis"`
	Spec      *jobs.Spec `json:"spec"`
	Range     Range      `json:"range"`
}

// ResultRequest is a shard payload upload.
type ResultRequest struct {
	Worker string `json:"worker"`
	Lease  int64  `json:"lease"`
	// Hash is the lowercase hex SHA-256 of Payload; the coordinator
	// recomputes and verifies it before accepting, so a truncated or
	// corrupted body can never reach the merge.
	Hash    string          `json:"hash"`
	Payload json.RawMessage `json:"payload"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  int64  `json:"lease"`
}

// Request body limits. A body past its limit is answered 413 before the
// server buffers more of it, so no client can make lbserver hold an
// arbitrarily large upload. The result limit bounds memory, not what a
// job may produce: the largest result upload the dist tests and `make
// dist-smoke` produce is 682 bytes (a sweep shard), and 1 MiB, the jobs
// API's spec bound, is over 1000× that, but a valid fuzz spec adds one
// failure record (100+ bytes) per failing sample and can pass any fixed
// limit. Such a shard's result is refused from every worker, so the
// coordinator hands its job back to the scheduler (resultTooLarge), which
// runs it locally to the same bytes. Lease and heartbeat bodies are a
// worker name and a lease token (at most 31 bytes measured), so 4 KiB is
// ample.
const (
	maxResultBytes  = 1 << 20
	maxControlBytes = 4 << 10
)

// RegisterRoutes mounts the shard protocol on mux.
func (c *Coordinator) RegisterRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/shards/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if code, err := obs.DecodeBody(w, r, maxControlBytes, &req); err != nil {
			obs.WriteError(w, code, fmt.Errorf("dist: decoding request: %w", err))
			return
		}
		if req.Worker == "" {
			obs.WriteError(w, http.StatusBadRequest, errors.New("dist: lease request without worker"))
			return
		}
		grant := c.Lease(req.Worker)
		if grant == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		obs.WriteJSON(w, http.StatusOK, LeaseResponse{
			ShardID:   grant.ShardID,
			Lease:     grant.Lease,
			TTLMillis: grant.TTL.Milliseconds(),
			Spec:      grant.Spec,
			Range:     grant.Range,
		})
	})

	mux.HandleFunc("POST /v1/shards/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		if code, err := obs.DecodeBody(w, r, c.maxResult, &req); err != nil {
			if code == http.StatusRequestEntityTooLarge {
				c.resultTooLarge(r.PathValue("id"))
			}
			obs.WriteError(w, code, fmt.Errorf("dist: decoding request: %w", err))
			return
		}
		err := c.Result(r.PathValue("id"), req.Lease, req.Hash, []byte(req.Payload))
		if err != nil {
			obs.WriteError(w, statusFor(err), err)
			return
		}
		obs.WriteJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
	})

	mux.HandleFunc("POST /v1/shards/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if code, err := obs.DecodeBody(w, r, maxControlBytes, &req); err != nil {
			obs.WriteError(w, code, fmt.Errorf("dist: decoding request: %w", err))
			return
		}
		if err := c.Heartbeat(r.PathValue("id"), req.Lease); err != nil {
			obs.WriteError(w, statusFor(err), err)
			return
		}
		obs.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, c.Snapshot())
	})
}

// statusFor maps protocol verdicts to status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownShard):
		return http.StatusNotFound
	case errors.Is(err, ErrLeaseLost):
		return http.StatusConflict
	case errors.Is(err, ErrHashMismatch):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}
