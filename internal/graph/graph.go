package graph

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Ordering selects how a graph ranks its units for the Unit-Manager's
// bind loop at admission.
type Ordering int

const (
	// OrderCriticalPath (the default) sets each unit's Priority to its
	// critical-path length — the node's own work plus the heaviest chain
	// of dependent work below it — so the bind loop starts the longest
	// remaining chain first and the DAG's tail does not wait behind
	// short independent work.
	OrderCriticalPath Ordering = iota
	// OrderFIFO leaves every priority at zero: units bind in Add order,
	// the flat-bag behavior — the baseline the dag experiment compares
	// critical-path ordering against.
	OrderFIFO
)

// String names the ordering for experiment tables.
func (o Ordering) String() string {
	if o == OrderFIFO {
		return "fifo"
	}
	return "critical-path"
}

// Node is one vertex of a Graph: a named Compute-Unit description plus
// its estimated work, the weight critical-path ordering sums.
type Node struct {
	name string
	desc core.ComputeUnitDescription
	work float64

	unit     *core.Unit
	critical float64
	index    int
	// children are the consumers of this node's outputs; parents its
	// producers — both derived from the data edges at Validate.
	children []*Node
	parents  []*Node
}

// Name returns the node's unit name.
func (n *Node) Name() string { return n.name }

// SetWork sets the node's work estimate in abstract seconds (default 1)
// — the critical-path weight — and returns the node for chaining.
func (n *Node) SetWork(w float64) *Node {
	if w > 0 {
		n.work = w
	}
	return n
}

// Unit returns the admitted Compute-Unit, nil before Submit.
func (n *Node) Unit() *core.Unit { return n.unit }

// CriticalPath returns the node's critical-path length — its work plus
// the heaviest dependent chain below it. It is computed by Validate
// (and Submit); zero before.
func (n *Node) CriticalPath() float64 { return n.critical }

// Graph is a UnitGraph: Compute-Units connected by data edges — a
// unit's Inputs referencing another unit's Outputs. Build one with New
// and Add, then Submit the whole graph to a Unit-Manager: every unit is
// admitted at once, each held by the manager until its input Data-Units
// replicate (dependency-aware late binding), with bind priority set by
// the chosen Ordering. A failed producer cancels its still-new outputs,
// so orphaned descendants fail with data.ErrUnavailable instead of
// waiting forever.
type Graph struct {
	nodes     []*Node
	byName    map[string]*Node
	wired     bool
	submitted bool
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]*Node)}
}

// Add appends one unit to the graph under desc.Name (which must be
// non-empty and unique within the graph) and returns its node. Edges
// are never declared explicitly: they are inferred from desc.Inputs
// referencing Data-Units other nodes declare in Outputs.
func (g *Graph) Add(desc core.ComputeUnitDescription) (*Node, error) {
	if g.submitted {
		return nil, fmt.Errorf("graph: add %q: %w", desc.Name, ErrAlreadySubmitted)
	}
	if desc.Name == "" {
		return nil, fmt.Errorf("graph: every graph unit needs a name")
	}
	if _, dup := g.byName[desc.Name]; dup {
		return nil, fmt.Errorf("graph: %w: %q", ErrDuplicateUnit, desc.Name)
	}
	n := &Node{name: desc.Name, desc: desc, work: 1, index: len(g.nodes)}
	g.nodes = append(g.nodes, n)
	g.byName[desc.Name] = n
	g.wired = false
	return n, nil
}

// Node looks up a node by unit name.
func (g *Graph) Node(name string) (*Node, bool) {
	n, ok := g.byName[name]
	return n, ok
}

// Nodes returns the graph's nodes in Add order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Len returns the number of units in the graph.
func (g *Graph) Len() int { return len(g.nodes) }

// Validate wires the data edges and checks the graph is executable:
// non-empty, no Data-Unit declared as output twice (ErrDuplicateOutput),
// no input that nothing will ever produce (ErrUnknownInput), and no
// dependency cycle (ErrCycle). It also computes every node's
// critical-path length. Validate is idempotent and implied by Submit.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("graph: %w", ErrEmptyGraph)
	}
	// Map each declared output Data-Unit to its producing node.
	producer := make(map[*data.Unit]*Node)
	for _, n := range g.nodes {
		for _, ref := range n.desc.Outputs {
			if ref.Unit == nil {
				continue
			}
			if prev, dup := producer[ref.Unit]; dup {
				return fmt.Errorf("graph: %w: %s by %q and %q",
					ErrDuplicateOutput, ref.Unit.Name(), prev.name, n.name)
			}
			producer[ref.Unit] = n
		}
	}
	// Wire edges: an input produced inside the graph is an edge; one
	// already staged (or staging) by a DataManager is an external
	// source; one in DataNew with no producer can never be satisfied.
	for _, n := range g.nodes {
		n.children, n.parents = nil, nil
	}
	for _, n := range g.nodes {
		seen := make(map[*Node]bool)
		for _, ref := range n.desc.Inputs {
			if ref.Unit == nil {
				continue
			}
			from, internal := producer[ref.Unit]
			if !internal {
				if ref.Unit.State() == data.StateNew {
					return fmt.Errorf("graph: unit %q: %w: %s",
						n.name, ErrUnknownInput, ref.Unit.Name())
				}
				continue // external input, already managed
			}
			if seen[from] {
				continue // two inputs from one producer: one edge
			}
			seen[from] = true
			from.children = append(from.children, n)
			n.parents = append(n.parents, from)
		}
	}
	order, err := g.topoOrder()
	if err != nil {
		return err
	}
	// Critical path, leaves upward: work plus the heaviest child chain.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		n.critical = n.work
		for _, c := range n.children {
			if v := n.work + c.critical; v > n.critical {
				n.critical = v
			}
		}
	}
	g.wired = true
	return nil
}

// topoOrder runs Kahn's algorithm over the wired edges, returning a
// deterministic topological order (Add order among the ready) or
// ErrCycle naming the units left on the cycle.
func (g *Graph) topoOrder() ([]*Node, error) {
	indeg := make(map[*Node]int, len(g.nodes))
	var ready []*Node
	for _, n := range g.nodes {
		indeg[n] = len(n.parents)
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	order := make([]*Node, 0, len(g.nodes))
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, c := range n.children {
			if indeg[c]--; indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if len(order) < len(g.nodes) {
		var stuck []string
		for _, n := range g.nodes {
			if indeg[n] > 0 {
				stuck = append(stuck, n.name)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("graph: %w through %v", ErrCycle, stuck)
	}
	return order, nil
}

// SubmitOption configures a graph Submit.
type SubmitOption func(*submitConfig)

type submitConfig struct {
	ordering Ordering
}

// WithOrdering selects the bind ordering (default OrderCriticalPath).
func WithOrdering(o Ordering) SubmitOption {
	return func(c *submitConfig) { c.ordering = o }
}

// Submit validates the graph and admits every unit to the Unit-Manager
// in one batch, in Add order, returning the units in the same order
// (also available per node via Node.Unit). Under OrderCriticalPath each
// description's Priority is set to the node's critical-path length
// before admission. The manager holds each unit until its inputs
// replicate, so no unit binds before its dependencies are satisfied
// regardless of the scheduling policy. A graph submits exactly once.
func (g *Graph) Submit(p *sim.Proc, um *core.UnitManager, opts ...SubmitOption) ([]*core.Unit, error) {
	if g.submitted {
		return nil, fmt.Errorf("graph: %w", ErrAlreadySubmitted)
	}
	cfg := submitConfig{ordering: OrderCriticalPath}
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	descs := make([]core.ComputeUnitDescription, len(g.nodes))
	for i, n := range g.nodes {
		d := n.desc
		if cfg.ordering == OrderCriticalPath {
			d.Priority = n.critical
		}
		descs[i] = d
	}
	units, err := um.Submit(p, descs)
	if err != nil {
		return nil, err
	}
	g.submitted = true
	rec := um.Session().Recorder()
	for i, n := range g.nodes {
		n.unit = units[i]
		if rec != nil {
			rec.Record(obs.Event{Kind: obs.KindGraphAdmit, Unit: units[i].ID,
				Name: n.name, Critical: n.critical})
		}
	}
	return units, nil
}
