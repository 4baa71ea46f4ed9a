// Package graph provides the computation-graph intermediate
// representation that dataflow accelerators compile: nodes are operators
// annotated with FLOP counts, parameter bytes and activation traffic;
// edges are data dependencies.
//
// All three vendors' toolchains in the paper lower an LLM to such a
// graph before mapping it: Cerebras places the whole graph at layer
// granularity, SambaNova partitions it into sections, and Graphcore
// groups layers into pipeline stages. The partitioners in
// internal/sched operate on this IR.
//
// # Immutability contract
//
// A Graph is mutable only while it is being constructed. Once Build (or
// Cached) returns, the graph — its node list, every Node's fields, and
// the edge list — is frozen: all exported Graph methods are
// read-only, and consumers must never call AddNode, AddEdge or MustEdge
// on a graph they did not construct themselves. The Cached build tier
// shares one *Graph across platforms, compile modes and concurrent
// sweep workers on the strength of this contract.
package graph

import (
	"fmt"

	"dabench/internal/units"
)

// OpKind classifies an operator node.
type OpKind int

// Operator kinds appearing in decoder-only transformer training.
const (
	OpEmbedding OpKind = iota
	OpNorm
	OpMatMul    // dense projections: QKV, attention output, MLP, LM head
	OpAttnScore // Q·Kᵀ
	OpSoftmax
	OpAttnContext // scores·V
	OpActivation  // GELU / SwiGLU pointwise
	OpResidual
	OpLoss
	OpOptimizer
	OpTransfer // explicit data movement (used by multi-chip lowering)
)

var opNames = map[OpKind]string{
	OpEmbedding:   "embedding",
	OpNorm:        "norm",
	OpMatMul:      "matmul",
	OpAttnScore:   "attn-score",
	OpSoftmax:     "softmax",
	OpAttnContext: "attn-context",
	OpActivation:  "activation",
	OpResidual:    "residual",
	OpLoss:        "loss",
	OpOptimizer:   "optimizer",
	OpTransfer:    "transfer",
}

// String returns the operator kind name.
func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Phase distinguishes forward, backward and weight-update work.
type Phase int

// Graph phases.
const (
	Forward Phase = iota
	Backward
	Update
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case Forward:
		return "fwd"
	case Backward:
		return "bwd"
	case Update:
		return "upd"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Node is one operator instance in the graph.
type Node struct {
	ID    int
	Name  string
	Kind  OpKind
	Phase Phase
	// Layer is the decoder-block index, or -1 for layer-independent
	// operators (embedding, final norm, LM head, loss).
	Layer int

	FLOPs       units.FLOPs // per training step at the built batch shape
	ParamBytes  units.Bytes // weight storage touched by this operator
	InputBytes  units.Bytes // activation bytes read
	OutputBytes units.Bytes // activation bytes written
}

// Traffic is the total memory traffic the node generates.
func (n *Node) Traffic() units.Bytes {
	return n.ParamBytes + n.InputBytes + n.OutputBytes
}

// Graph is a DAG of operator nodes.
type Graph struct {
	nodes []*Node // in ID order, each pointing into a slab
	slab  []Node  // backing store for the newest nodes
	edges []edge  // in insertion order
}

// edge is one data dependency, by node ID.
type edge struct{ from, to int }

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// NewSized returns an empty graph preallocated for about n nodes.
func NewSized(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{nodes: make([]*Node, 0, n), slab: make([]Node, 0, n)}
}

// AddNode appends a node, assigning its ID, and returns it. Nodes live
// in a slab; a full slab is replaced, never grown in place, so every
// pointer handed out earlier stays valid.
func (g *Graph) AddNode(n Node) *Node {
	n.ID = len(g.nodes)
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]Node, 0, max(2*cap(g.slab), 8))
	}
	g.slab = append(g.slab, n)
	p := &g.slab[len(g.slab)-1]
	g.nodes = append(g.nodes, p)
	return p
}

// AddEdge records a data dependency from producer to consumer.
// Self-edges and references to unknown nodes are rejected.
func (g *Graph) AddEdge(from, to *Node) error {
	if from == nil || to == nil {
		return fmt.Errorf("graph: nil node in edge")
	}
	if from.ID == to.ID {
		return fmt.Errorf("graph: self edge on %q", from.Name)
	}
	if from.ID >= len(g.nodes) || g.nodes[from.ID] != from ||
		to.ID >= len(g.nodes) || g.nodes[to.ID] != to {
		return fmt.Errorf("graph: edge references foreign node")
	}
	g.edges = append(g.edges, edge{from: from.ID, to: to.ID})
	return nil
}

// MustEdge is AddEdge for construction code where both endpoints are
// freshly created; it panics on programmer error.
func (g *Graph) MustEdge(from, to *Node) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// Nodes returns the node list in insertion order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Len returns the node count.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id int) *Node {
	if id < 0 || id >= len(g.nodes) {
		return nil
	}
	return g.nodes[id]
}

// Successors returns the consumers of n, in edge insertion order.
func (g *Graph) Successors(n *Node) []*Node {
	var out []*Node
	for _, e := range g.edges {
		if e.from == n.ID {
			out = append(out, g.nodes[e.to])
		}
	}
	return out
}

// Predecessors returns the producers feeding n, in edge insertion
// order.
func (g *Graph) Predecessors(n *Node) []*Node {
	var out []*Node
	for _, e := range g.edges {
		if e.to == n.ID {
			out = append(out, g.nodes[e.from])
		}
	}
	return out
}

// successorIndex returns the successors of nodes 0..n-1 over edges in
// compressed form: node i's successors are to[off[i]:off[i+1]], in
// edge insertion order. Every edge must start below n.
func successorIndex(n int, edges []edge) (off, to []int) {
	off = make([]int, n+1)
	for _, e := range edges {
		off[e.from+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	// Fill with off[i] as node i's cursor, which leaves it at the start
	// of node i+1's run; shifting right by one restores the offsets.
	to = make([]int, len(edges))
	for _, e := range edges {
		to[off[e.from]] = e.to
		off[e.from]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, to
}

// TopoSort returns the nodes in a valid execution order, or an error if
// the graph has a cycle.
func (g *Graph) TopoSort() ([]*Node, error) {
	off, succ := successorIndex(len(g.nodes), g.edges)
	indeg := make([]int, len(g.nodes))
	for _, to := range succ {
		indeg[to]++
	}
	queue := make([]int, 0, len(g.nodes))
	for id := range g.nodes {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	order := make([]*Node, 0, len(g.nodes))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, g.nodes[id])
		for _, to := range succ[off[id]:off[id+1]] {
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)", len(order), len(g.nodes))
	}
	return order, nil
}

// Validate checks the graph is a DAG. When every edge runs from a lower
// ID to a higher one, as in every graph Build constructs, ID order is a
// topological order and no sort is needed.
func (g *Graph) Validate() error {
	for _, e := range g.edges {
		if e.from >= e.to {
			_, err := g.TopoSort()
			return err
		}
	}
	return nil
}

// TotalFLOPs sums FLOPs over all nodes.
func (g *Graph) TotalFLOPs() units.FLOPs {
	var t units.FLOPs
	for _, n := range g.nodes {
		t += n.FLOPs
	}
	return t
}

// TotalParamBytes sums weight bytes over all nodes (each operator's
// weights counted where they are used).
func (g *Graph) TotalParamBytes() units.Bytes {
	var t units.Bytes
	for _, n := range g.nodes {
		t += n.ParamBytes
	}
	return t
}

// TotalTraffic sums memory traffic over all nodes.
func (g *Graph) TotalTraffic() units.Bytes {
	var t units.Bytes
	for _, n := range g.nodes {
		t += n.Traffic()
	}
	return t
}

// NodesInLayer returns the nodes belonging to decoder block l.
func (g *Graph) NodesInLayer(l int) []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n.Layer == l {
			out = append(out, n)
		}
	}
	return out
}

// MaxLayer returns the highest decoder-block index present, or -1.
func (g *Graph) MaxLayer() int {
	maxL := -1
	for _, n := range g.nodes {
		if n.Layer > maxL {
			maxL = n.Layer
		}
	}
	return maxL
}

// Filter returns the nodes for which keep returns true.
func (g *Graph) Filter(keep func(*Node) bool) []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if keep(n) {
			out = append(out, n)
		}
	}
	return out
}
