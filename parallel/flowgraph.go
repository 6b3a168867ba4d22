package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"aomplib/internal/rt"
)

// FlowGraph is a small static task graph: nodes are functions, edges are
// happens-before constraints, and Run executes every node with maximal
// parallelism subject to the edges — a minimal dependency-graph layer in
// the spirit of oneTBB's flow graph, built directly on the runtime's
// dependence tracker (rt.SpawnDep): each node's task carries In
// dependences on its predecessors' keys, so the tracker releases a node
// the moment its last predecessor retires, with no central coordinator.
//
// Build once with Node/Edge, then Run as many times as needed; the graph
// is reusable (but not concurrently runnable) and may not be mutated
// while Run is in flight. FlowGraph is not safe for concurrent
// construction.
type FlowGraph struct {
	nodes    []*GraphNode
	canceled atomic.Bool
	panicMu  sync.Mutex
	panicVal any
}

// GraphNode is one node of a FlowGraph, created by (*FlowGraph).Node.
type GraphNode struct {
	name  string
	fn    func()
	preds []*GraphNode
	g     *FlowGraph
	key   byte
}

// NewFlowGraph returns an empty graph.
func NewFlowGraph() *FlowGraph { return &FlowGraph{} }

// Node adds a node executing fn. The name appears in cycle errors and
// has no other meaning; fn runs at most once per Run, after all
// predecessors added via Edge.
func (g *FlowGraph) Node(name string, fn func()) *GraphNode {
	n := &GraphNode{name: name, fn: fn, g: g}
	g.nodes = append(g.nodes, n)
	return n
}

// Edge adds the constraint that from completes before to starts. Both
// nodes must belong to this graph; duplicate edges are harmless.
func (g *FlowGraph) Edge(from, to *GraphNode) {
	if from == nil || to == nil || from.g != g || to.g != g {
		panic("parallel: FlowGraph.Edge with a nil or foreign node")
	}
	to.preds = append(to.preds, from)
}

// Run executes the graph: nodes with no unfinished predecessors run
// concurrently on a team of WithThreads width (nested calls reuse the
// current team). It returns an error if the graph has a cycle, without
// running any node. A node panic cancels the run — nodes that have not
// started are skipped, in-flight nodes finish — and the first panic value
// is re-raised after the graph drains.
func (g *FlowGraph) Run(opts ...Opt) error {
	order, err := g.topoOrder()
	if err != nil {
		return err
	}
	if len(order) == 0 {
		return nil
	}
	g.canceled.Store(false)
	g.panicVal = nil
	if rt.Current() != nil {
		rt.TaskGroupScope(func() { g.spawnAll(order) })
	} else {
		c := apply(opts)
		width := c.width(len(order))
		rt.Region(width, func(w *rt.Worker) {
			// Spawn before the barrier so the join never sees an empty
			// deque while the graph is still being seeded.
			if w.ID == 0 {
				g.spawnAll(order)
			}
			w.Team.Barrier().Wait()
		})
	}
	if g.panicVal != nil {
		panic(g.panicVal)
	}
	return nil
}

// spawnAll hands every node to the dependence tracker in topological
// order: spawn order makes each node's In keys refer to already-enqueued
// predecessors, so edge derivation is exactly the user's edge set.
func (g *FlowGraph) spawnAll(order []*GraphNode) {
	for _, n := range order {
		n := n
		var d rt.Deps
		d.Out = []any{&n.key}
		for _, p := range n.preds {
			d.In = append(d.In, &p.key)
		}
		rt.SpawnDep(func() { g.runNode(n) }, d)
	}
}

// runNode executes one node unless the run is canceled, recording the
// first panic (independent nodes may panic concurrently, hence the lock).
func (g *FlowGraph) runNode(n *GraphNode) {
	if g.canceled.Load() {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			g.canceled.Store(true)
			g.panicMu.Lock()
			if g.panicVal == nil {
				g.panicVal = r
			}
			g.panicMu.Unlock()
		}
	}()
	n.fn()
}

// topoOrder returns the nodes in a topological order, or an error naming
// a node on a cycle (Kahn's algorithm).
func (g *FlowGraph) topoOrder() ([]*GraphNode, error) {
	indeg := make(map[*GraphNode]int, len(g.nodes))
	succs := make(map[*GraphNode][]*GraphNode, len(g.nodes))
	for _, n := range g.nodes {
		indeg[n] += 0
		for _, p := range n.preds {
			indeg[n]++
			succs[p] = append(succs[p], n)
		}
	}
	queue := make([]*GraphNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	order := make([]*GraphNode, 0, len(g.nodes))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, s := range succs[n] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(g.nodes) {
		for _, n := range g.nodes {
			if indeg[n] > 0 {
				return nil, fmt.Errorf("parallel: flow graph has a cycle through node %q", n.name)
			}
		}
	}
	return order, nil
}
