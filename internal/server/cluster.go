package server

import (
	"net/http"
	"strconv"
	"time"

	"dabench/internal/cluster"
	"dabench/internal/store"
)

// Cluster fabric endpoints. Both are registered unconditionally — a
// single-node daemon answers gossip with its own state and an empty
// peer list, and exports blobs — so a fleet can be formed around a node
// that booted first, and tests can attach a fabric (SetCluster) after
// the listener is up.
//
//	GET  /v1/gossip        this node's state + its view of every peer
//	GET  /v1/blobs/{addr}  raw framed store blob export

// SetCluster attaches a fabric to a running server: the gossip payload
// gains the node identity, /v1/stats and /metrics gain the cluster
// families, and /healthz gains the cluster component. No request path
// changes: /v1/run reads only the local store and recomputes on a miss,
// and async jobs run every chunk here. Call before serving traffic (the
// daemon wires it at boot; tests between constructing httptest servers
// and issuing requests).
func (s *Server) SetCluster(f *cluster.Fabric) {
	s.fabric.Store(f)
}

// cluster returns the attached fabric (nil on a single node).
func (s *Server) cluster() *cluster.Fabric {
	return s.fabric.Load()
}

// nodeState assembles this node's gossip self-report from the same
// sources /v1/stats reads.
func (s *Server) nodeState() cluster.NodeState {
	ns := cluster.NodeState{Status: "ok", UptimeSec: time.Since(s.start).Seconds()}
	if f := s.cluster(); f != nil {
		ns.NodeID, ns.URL = f.NodeID(), f.SelfURL()
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		ns.StoreEntries, ns.StoreBytes = st.Entries, st.Bytes
		if st.Degraded {
			ns.Status = "degraded"
		}
	}
	if s.cfg.Provenance != nil {
		ps := s.cfg.Provenance.Stats()
		ns.ChainRecords, ns.ChainTip = ps.Records, ps.TipHash
	}
	return ns
}

func (s *Server) handleGossip(w http.ResponseWriter, _ *http.Request) {
	resp := cluster.GossipResponse{NodeState: s.nodeState()}
	if f := s.cluster(); f != nil {
		resp.Peers = f.Peers()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBlob exports one store blob's raw on-disk bytes, frame and
// all. No daemon path fetches it; FetchFrame's callers do, and because
// its 404 runs the store's flush first, a client can use a GET for an
// absent address as a write-behind barrier. The address is validated
// as strict hex-sha256 before any path handling: it is about to become
// a file name on this node's disk, and the shape check is the only
// thing between a crafted request and the filesystem.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	if !store.ValidAddr(addr) {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"blob address must be exactly 64 lowercase hex characters")
		return
	}
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			"this node serves RAM-only (no -data-dir); no blobs to export")
		return
	}
	data, ok := s.cfg.Store.ReadFrame(addr)
	if !ok {
		// The store is write-behind: a blob computed moments ago may
		// still be in the queue. One flush barrier before declaring the
		// miss keeps a freshly-computed blob from racing the writer
		// goroutine, and makes every 404 a barrier for the caller.
		s.cfg.Store.Snapshot()
		data, ok = s.cfg.Store.ReadFrame(addr)
	}
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound,
			"no blob at "+strconv.Quote(addr))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}
