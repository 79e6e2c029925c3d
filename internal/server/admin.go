package server

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
)

// AdminHandler serves the stats document as JSON:
//
//	GET /stats   → StatsDocument (503 once the database is closed)
//	GET /healthz → 200 "ok" while serving, 503 while draining
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		doc, err := s.StatsDocument()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	return mux
}

// ServeAdmin serves the admin endpoint on ln until Shutdown. Returns
// nil when the listener closes because of a shutdown.
func (s *Server) ServeAdmin(ln net.Listener) error {
	srv := &http.Server{Handler: s.AdminHandler()}
	s.adminMu.Lock()
	s.adminSrv = srv
	s.adminMu.Unlock()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) || s.draining.Load() {
		return nil
	}
	return err
}

// closeAdmin stops the admin HTTP server if one is running.
func (s *Server) closeAdmin() {
	s.adminMu.Lock()
	srv := s.adminSrv
	s.adminMu.Unlock()
	if srv != nil {
		srv.Close()
	}
}
