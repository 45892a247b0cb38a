package machine

// SMPCluster models a cluster of shared-memory nodes: ranks are packed
// into nodes of nodeSize consecutive ranks; messages within a node move
// at memory-copy speed while messages between nodes cross the cluster
// interconnect.  This is the machine class (SP nodes, Beowulf clusters)
// that succeeded the paper's flat SP2, and the one on which a
// hop-oblivious processor mapping visibly overpays: retaining data on a
// same-node rank is nearly free, retaining it across nodes is not.
type SMPCluster struct {
	p        int
	nodeSize int
	intra    LinkParams
	inter    LinkParams
}

// SMPIntraLink returns the default intra-node link calibration: a
// shared-memory copy at ~400 MB/s with a ~3 us software handoff.
func SMPIntraLink() LinkParams {
	return LinkParams{Setup: 3e-6, PerByte: 1.0 / 400e6, Latency: 1e-6}
}

// NewSMPCluster builds a p-rank cluster of nodes holding nodeSize
// consecutive ranks each (the last node may be partial).  nodeSize < 1
// panics.
func NewSMPCluster(p, nodeSize int, intra, inter LinkParams) *SMPCluster {
	if nodeSize < 1 {
		panic("machine: SMP node size must be positive")
	}
	return &SMPCluster{p: p, nodeSize: nodeSize, intra: intra, inter: inter}
}

// Name implements Model.
func (m *SMPCluster) Name() string { return "smp" }

// Ranks implements Model.
func (m *SMPCluster) Ranks() int { return m.p }

// Node returns the node index of rank r.
func (m *SMPCluster) Node(r int) int { return r / m.nodeSize }

// Pair implements Model: intra-node constants within a node, inter-node
// constants across nodes.
func (m *SMPCluster) Pair(src, dst int) LinkParams {
	if m.Node(src) == m.Node(dst) {
		return m.intra
	}
	return m.inter
}

// Speed implements Model: all ranks run at baseline speed.
func (m *SMPCluster) Speed(r int) float64 { return 1 }

// Hops implements Model: 0 to self, 1 within a node, 3 across nodes
// (NIC, cluster switch, NIC).
func (m *SMPCluster) Hops(src, dst int) int {
	switch {
	case src == dst:
		return 0
	case m.Node(src) == m.Node(dst):
		return 1
	default:
		return 3
	}
}

// Acquire implements Model: links are modeled contention-free.
func (m *SMPCluster) Acquire(src, dst, nbytes int, depart float64) float64 { return depart }

// Contended implements Model: no shared link state.
func (m *SMPCluster) Contended(src, dst int) bool { return false }

// Reset implements Model.
func (m *SMPCluster) Reset() {}
