package server

import "net/http"

// arbitraryRequest is the /v1/arbitrary request schema.
type arbitraryRequest struct {
	// Count is the number of samples wanted (1 ≤ Count ≤ MaxCount).
	Count int `json:"count"`
	// Sigma is the free-form standard deviation (required, within the
	// served bounds — see /healthz).
	Sigma float64 `json:"sigma"`
	// Mu is the center (optional, default 0).
	Mu float64 `json:"mu,omitempty"`
}

// arbitraryResponse is the /v1/arbitrary response schema.
type arbitraryResponse struct {
	Sigma   float64 `json:"sigma"`
	Mu      float64 `json:"mu"`
	Count   int     `json:"count"`
	Samples []int   `json:"samples"`
}

func (s *Server) handleArbitrary(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req arbitraryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !s.validCount(w, req.Count) {
		return
	}
	out := make([]int, req.Count)
	served, err := s.draw(r.Context(), drawKey{sigma: req.Sigma, mu: req.Mu}, out)
	if err != nil {
		s.writeDrawError(w, epArbitrary, err)
		return
	}
	w.Header().Set(tierHeader, served)
	writeJSON(w, http.StatusOK, arbitraryResponse{Sigma: req.Sigma, Mu: req.Mu, Count: req.Count, Samples: out})
}
