package checkd

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/specs"
	"repro/internal/tla"
)

// NewHandler builds the service's HTTP/JSON API over one Supervisor:
//
//	POST   /jobs             submit a JobRequest; 202 + JobResult (200 on a
//	                         cache hit, outcome inline), 400 invalid,
//	                         429 queue full, 503 draining
//	GET    /jobs             list all jobs (JobStatus array)
//	GET    /jobs/{id}        status + live progress
//	GET    /jobs/{id}/result status + outcome (null until terminal)
//	DELETE /jobs/{id}        cancel; 204
//	GET    /specs            the spec catalogue's names
//	GET    /metrics          Prometheus text exposition: process-level
//	                         checkd_* families plus each running job's
//	                         engine tla_* families, scoped by job="id"
//	GET    /healthz          process liveness, always 200 while serving
//	GET    /readyz           admission readiness: 503 once draining
//
// Every body is JSON except /metrics (Prometheus text, version 0.0.4);
// errors are {"error": "..."}.
func NewHandler(s *Supervisor) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		res, err := s.Submit(req)
		if err != nil {
			writeErr(w, submitStatus(err), err)
			return
		}
		code := http.StatusAccepted
		if res.Cached {
			code = http.StatusOK // answered from the verdict cache, no run queued
		}
		writeJSONBody(w, code, res)
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSONBody(w, http.StatusOK, s.Jobs())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSONBody(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.Result(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSONBody(w, http.StatusOK, res)
	})

	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /specs", func(w http.ResponseWriter, r *http.Request) {
		writeJSONBody(w, http.StatusOK, specs.Names())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w) //nolint:errcheck // the connection is gone; nothing to do
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSONBody(w, http.StatusOK, map[string]any{
			"ok":              true,
			"cached_verdicts": s.CacheLen(),
		})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeErr(w, http.StatusServiceUnavailable, ErrDraining)
			return
		}
		writeJSONBody(w, http.StatusOK, map[string]any{"ready": true})
	})

	return mux
}

// submitStatus maps a Submit error onto its HTTP status: the queue-full
// and draining rejections are backpressure (retryable), everything else
// is the client's request.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownSpec), errors.Is(err, tla.ErrInvalidOptions):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeJSONBody(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSONBody(w, code, map[string]string{"error": err.Error()})
}
