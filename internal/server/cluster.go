package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"dabench/internal/cluster"
	"dabench/internal/store"
)

// Cluster fabric endpoints. All three are registered unconditionally —
// a single-node daemon answers gossip with its own state and an empty
// peer list, exports blobs, and executes chunks — so a fleet can be
// formed around a node that booted first, and tests can attach a
// fabric (SetCluster) after the listener is up.
//
//	GET  /v1/gossip        this node's state + its view of every peer
//	GET  /v1/blobs/{addr}  raw framed store blob export
//	POST /v1/chunks        execute one job chunk remotely (job sharding)

// SetCluster attaches a fabric to a running server: the gossip payload
// gains the node identity, /v1/stats and /metrics gain the cluster
// families, /healthz gains the cluster component, and async jobs shard
// their chunks across the fleet. /v1/run is untouched: it reads only
// the local store and recomputes on a miss. Call before serving
// traffic (the daemon wires it at boot; tests between constructing
// httptest servers and issuing requests).
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

// ChunkRequest is the POST /v1/chunks wire form: one sweep's axes plus
// the half-open point range [Start, End) to execute here.
type ChunkRequest struct {
	Request SweepRequest `json:"request"`
	Start   int          `json:"start"`
	End     int          `json:"end"`
}

// ChunkResponse is the remote chunk result: labeled outcomes in point
// order plus the tolerated-failure count, exactly what the
// coordinator's local chunk path produces.
type ChunkResponse struct {
	Results []RunResult `json:"results"`
	Failed  int         `json:"failed"`
}

// handleChunk executes one job chunk on behalf of a peer coordinator.
// It runs under this node's own admission gate and chunk retry policy —
// a remote chunk competes with local traffic like any other simulation
// work — and never re-dispatches (the coordinator owns sharding, so
// there is no forwarding cycle to break).
func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	var req ChunkRequest
	if err := decodeLean(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	a, err := req.Request.axes()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	n := a.product()
	if req.Start < 0 || req.End <= req.Start || int64(req.End) > n {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"chunk range ["+strconv.Itoa(req.Start)+", "+strconv.Itoa(req.End)+") is not within the sweep's "+strconv.FormatInt(n, 10)+" points")
		return
	}
	if req.End-req.Start > jobChunk {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"chunk of "+strconv.Itoa(req.End-req.Start)+" points exceeds the chunk size of "+strconv.Itoa(jobChunk))
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	outs, _, err := s.runChunk(ctx, a, req.Start, req.End)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	resp := ChunkResponse{Results: make([]RunResult, len(outs))}
	for i, o := range outs {
		spec, label, _ := a.point(req.Start + i)
		res := o.Value
		if o.Failed() {
			res = result(a.p, spec, nil, nil)
			res.Failed, res.FailReason = true, o.Err.Error()
			resp.Failed++
		}
		res.Label = label
		resp.Results[i] = res
	}
	s.served.Add(1)
	writeJSON(w, http.StatusOK, resp)
}
