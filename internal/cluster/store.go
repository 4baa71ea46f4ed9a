package cluster

import (
	"dabench/internal/platform"
	"dabench/internal/store"
)

// FabricStore wraps a local *store.Store with the peer-fetch tier: the
// network generalization of the store's local sibling-blob adoption. A
// local raw miss consults the ring, fetches the framed blob from a
// peer, verifies and adopts it into the local store (write-behind,
// budget-enforced — the adoption is a put like any other), and answers
// from the adopted frame's response bytes. Writes delegate untouched:
// every node persists only what it computed or adopted, and
// replication happens by demand (heat spreads to where the requests
// are), not by push.
//
// It is the server's /v1/run byte lane on a fleet node, and nothing
// else: the memo tiers never mount it, so a cold /v1/run probes its
// peers once, and sweeps, jobs, chunks and scenarios never probe them
// at all.
type FabricStore struct {
	local  *store.Store
	fabric *Fabric
}

var _ platform.RawResponseStore = (*FabricStore)(nil)

// WrapStore mounts the fabric's peer-fetch tier over local. A nil
// fabric returns a wrapper that is exactly the local store.
func (f *Fabric) WrapStore(local *store.Store) *FabricStore {
	return &FabricStore{local: local, fabric: f}
}

// fetchAdopt is the miss path: fetch the frame for (platform, specKey)
// from a peer and adopt it locally. Returns the frame's response
// section (nil when absent) and whether anything was adopted.
func (fs *FabricStore) fetchAdopt(platformName, specKey string) ([]byte, bool) {
	if fs.fabric == nil {
		return nil, false
	}
	// The platform.RawResponseStore seam carries no request context, so
	// the fetch runs under the fabric's lifecycle root: still bounded by
	// FetchTimeout per peer, and cancelled the moment the fabric
	// closes — a draining daemon no longer leaks peer fetches.
	addr := store.Address(platformName, specKey)
	data, _, ok := fs.fabric.FetchFrame(fs.fabric.baseCtx, addr)
	if !ok {
		return nil, false
	}
	_, resp, err := fs.local.AdoptFrame(addr, data)
	if err != nil {
		// A frame that does not verify is counted like a transport error:
		// the peer sent bytes we cannot trust.
		fs.fabric.fetchErrors.Add(1)
		return nil, false
	}
	fs.fabric.noteAdoption()
	return resp, true
}

// LoadRaw implements the byte-level warm lane: local frame first, then
// a peer fetch whose adopted frame may carry the pre-marshaled response
// section — in which case the fetching node serves the exact bytes the
// computing node served, zero re-render.
func (fs *FabricStore) LoadRaw(platformName, specKey string) ([]byte, bool) {
	if raw, ok := fs.local.LoadRaw(platformName, specKey); ok {
		return raw, true
	}
	resp, ok := fs.fetchAdopt(platformName, specKey)
	if !ok || len(resp) == 0 {
		return nil, false
	}
	return resp, true
}

// StoreWithResponse delegates to the local store.
func (fs *FabricStore) StoreWithResponse(platformName, specKey string, st platform.Stored, resp []byte) {
	fs.local.StoreWithResponse(platformName, specKey, st, resp)
}
