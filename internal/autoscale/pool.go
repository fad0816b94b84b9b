package autoscale

import "fmt"

// Arbiter grants replica capacity to one autoscaled replica set from a
// shared budget. An Autoscaler with a non-nil Arbiter consults it every
// control-loop tick — even when its own policy would hold steady — so a
// shared pool can preempt idle surplus the moment a competing model needs
// it, without waiting out the member's own scale-down cooldown.
type Arbiter interface {
	// Grant arbitrates one tick: cur is the member's live replica count,
	// want the target its own policy computed (cooldowns applied), and
	// demand the replica count its current load justifies ignoring
	// cooldowns. Returns the target the member may apply; never above want.
	Grant(cur, want, demand int) int
}

// Pool is a finite node budget shared by the replica sets of a multi-model
// fleet. Each member's autoscaler computes its own target as usual; the
// pool caps the sum. Capacity is arbitrated in nodes (a member's replicas
// may each span several nodes) with two rules:
//
//   - Contention is resolved by demand, not by possession: entitlements are
//     a weighted fair share of the capacity bounded by each member's
//     load-justified demand. A member holding replicas its load no longer
//     justifies is granted less than it holds, and its surplus drains
//     gracefully — which is how a burst on model A reclaims idle capacity
//     from model B instead of failing on node exhaustion.
//   - Growth is bounded by nodes actually free right now (capacity minus
//     every other member's live usage), so a reclaim converges over a few
//     ticks as the drained nodes free up. Grants computed against demands
//     another member is about to raise can transiently overlap; the next
//     round of ticks re-fills with current demands and converges, since
//     one fill's entitlements never sum past capacity.
//
// Weights are relative priorities: a weight-2 member is entitled to twice
// the nodes of a weight-1 member under contention. Capacity should cover
// every member's MinReplicas floor; below that, low-weight members can be
// entitled less than their floor.
type Pool struct {
	capacity int
	members  []*Member
}

// NewPool creates a pool arbitrating capacityNodes nodes.
func NewPool(capacityNodes int) *Pool {
	return &Pool{capacity: capacityNodes}
}

// Member is one replica set's stake in a Pool. It implements Arbiter for
// that set's Autoscaler.
type Member struct {
	pool *Pool
	name string
	// weight is the member's relative share under contention (min 1).
	weight int
	// nodesPerReplica converts the member's replica counts to node counts.
	nodesPerReplica int
	// current reports the member's live replica count (the deployment's,
	// not the autoscaler's view — drains in progress still hold nodes).
	current func() int

	want   int // last target reported by the member's policy
	demand int // last load-justified demand reported
}

// Join registers a member. nodesPerReplica must be >= 1; weight < 1 is
// treated as 1. initial primes the member's demand so capacity it already
// holds is not reclaimed before its autoscaler's first tick (fixed-size
// members simply never update it).
func (pl *Pool) Join(name string, weight, nodesPerReplica, initial int, current func() int) (*Member, error) {
	if nodesPerReplica < 1 {
		return nil, fmt.Errorf("autoscale: pool member %q needs nodesPerReplica >= 1 (got %d)", name, nodesPerReplica)
	}
	if weight < 1 {
		weight = 1
	}
	for _, m := range pl.members {
		if m.name == name {
			return nil, fmt.Errorf("autoscale: pool member %q already joined", name)
		}
	}
	m := &Member{
		pool: pl, name: name, weight: weight, nodesPerReplica: nodesPerReplica,
		current: current, want: initial, demand: initial,
	}
	pl.members = append(pl.members, m)
	return m, nil
}

// Grant implements Arbiter for this member.
func (m *Member) Grant(cur, want, demand int) int {
	if want < 0 {
		want = 0
	}
	if demand < 0 {
		demand = 0
	}
	m.want, m.demand = want, demand
	entitled := m.pool.fill()[m]
	grant := want
	if entitled < grant {
		grant = entitled
	}
	if grant > cur {
		// Growth is bounded by nodes free right now. A member mid-drain
		// elsewhere still occupies its nodes; the next tick re-grants.
		free := m.pool.capacity
		for _, o := range m.pool.members {
			if o != m {
				free -= o.current() * o.nodesPerReplica
			}
		}
		if afford := free / m.nodesPerReplica; afford < grant {
			grant = afford
		}
		// Never force a shrink on affordability alone: others being
		// transiently over budget must not drain a member whose
		// entitlement covers what it holds.
		if grant < cur {
			grant = cur
		}
	}
	if grant < 0 {
		grant = 0
	}
	return grant
}

// fill computes each member's entitlement (in replicas) by weighted
// round-robin water-filling: first every member up to its load-justified
// demand, then any leftover up to what members want (so cooldown-held
// surplus survives while nobody else needs the nodes). Deterministic:
// ties resolve in registration order.
func (pl *Pool) fill() map[*Member]int {
	alloc := make(map[*Member]int, len(pl.members))
	remaining := pl.capacity
	bounds := []func(*Member) int{
		func(m *Member) int { return m.demand },
		func(m *Member) int {
			if m.want > m.demand {
				return m.want
			}
			return m.demand
		},
	}
	for _, bound := range bounds {
		for remaining > 0 {
			var best *Member
			var bestScore float64
			for _, m := range pl.members {
				if alloc[m] >= bound(m) || m.nodesPerReplica > remaining {
					continue
				}
				score := float64((alloc[m]+1)*m.nodesPerReplica) / float64(m.weight)
				if best == nil || score < bestScore {
					best, bestScore = m, score
				}
			}
			if best == nil {
				break
			}
			alloc[best]++
			remaining -= best.nodesPerReplica
		}
	}
	return alloc
}

// PoolMemberStatus is one member's row in PoolStatus.
type PoolMemberStatus struct {
	Name     string `json:"name"`
	Weight   int    `json:"weight"`
	Replicas int    `json:"replicas"`
	Nodes    int    `json:"nodes"`
	Want     int    `json:"want"`
	Demand   int    `json:"demand"`
	Entitled int    `json:"entitled"`
}

// PoolStatus is the arbiter's observable state.
type PoolStatus struct {
	CapacityNodes int                `json:"capacity_nodes"`
	UsedNodes     int                `json:"used_nodes"`
	Members       []PoolMemberStatus `json:"members"`
}

// Status snapshots the pool: live usage and current entitlements.
func (pl *Pool) Status() PoolStatus {
	st := PoolStatus{CapacityNodes: pl.capacity}
	entitled := pl.fill()
	for _, m := range pl.members {
		cur := m.current()
		nodes := cur * m.nodesPerReplica
		st.UsedNodes += nodes
		st.Members = append(st.Members, PoolMemberStatus{
			Name: m.name, Weight: m.weight, Replicas: cur, Nodes: nodes,
			Want: m.want, Demand: m.demand, Entitled: entitled[m],
		})
	}
	return st
}
