// Package slurm simulates the Simple Linux Utility for Resource Management:
// whole-node batch jobs on partitions, FIFO scheduling with EASY backfill,
// enforced time limits, cancellation, node reservations (the substrate for
// Compute-as-Login mode), and scheduled maintenance downtime.
//
// Job scripts are Go functions receiving a JobContext with the allocated
// nodes and Slurm-style environment variables; the Fig 11 Ray-cluster
// bootstrap is expressed as such a script in internal/core.
package slurm

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
)

// State is a job lifecycle state (squeue codes).
type State string

const (
	StatePending   State = "PENDING"
	StateRunning   State = "RUNNING"
	StateCompleted State = "COMPLETED"
	StateFailed    State = "FAILED"
	StateTimeout   State = "TIMEOUT"
	StateCancelled State = "CANCELLED"
)

// JobSpec describes a batch submission (the sbatch directives).
type JobSpec struct {
	Name      string
	Partition string // "" = default partition
	Nodes     int
	TimeLimit time.Duration // 0 = partition default
	// Run is the job script body. A non-nil return marks the job FAILED.
	// The function runs on its own process; when the job is cancelled or
	// times out the process is killed and cleanups run.
	Run func(jc *JobContext) error
}

// Job is a queued or running batch job.
type Job struct {
	ID        int
	Spec      JobSpec
	State     State
	SubmitAt  time.Time
	StartAt   time.Time
	EndAt     time.Time
	Reason    string // pending reason or failure message
	Nodes     []*hw.Node
	proc      *sim.Proc
	limitTm   *sim.Timer
	cleanups  []func()
	timeLimit time.Duration
}

// NodeNames lists allocated node names.
func (j *Job) NodeNames() []string {
	var out []string
	for _, n := range j.Nodes {
		out = append(out, n.Name)
	}
	return out
}

// JobContext is what the job script sees.
type JobContext struct {
	Job   *Job
	Nodes []*hw.Node
	Proc  *sim.Proc
	Env   map[string]string
}

// OnCleanup registers fn to run when the job ends for any reason
// (completion, failure, cancel, timeout) — used to stop containers.
func (jc *JobContext) OnCleanup(fn func()) {
	jc.Job.cleanups = append(jc.Job.cleanups, fn)
}

type partition struct {
	name         string
	nodes        []*hw.Node
	defaultLimit time.Duration
	maxLimit     time.Duration
}

// Cluster is one Slurm-managed system (e.g. Hops).
type Cluster struct {
	Name string
	eng  *sim.Engine

	partitions  map[string]*partition
	defaultPart string

	queue    []*Job // pending, FIFO order
	running  []*Job
	busy     map[*hw.Node]*Job
	reserved map[string]string // node name → reservation tag (CaL, maint)

	nextID    int
	schedTick bool
	down      bool
}

// New creates an empty cluster.
func New(eng *sim.Engine, name string) *Cluster {
	return &Cluster{
		Name: name, eng: eng,
		partitions: make(map[string]*partition),
		busy:       make(map[*hw.Node]*Job),
		reserved:   make(map[string]string),
	}
}

// AddPartition registers nodes under a partition name.
func (c *Cluster) AddPartition(name string, nodes []*hw.Node, defaultLimit, maxLimit time.Duration, isDefault bool) {
	if defaultLimit <= 0 {
		defaultLimit = 4 * time.Hour
	}
	if maxLimit <= 0 {
		maxLimit = 48 * time.Hour
	}
	c.partitions[name] = &partition{name: name, nodes: nodes, defaultLimit: defaultLimit, maxLimit: maxLimit}
	if isDefault || c.defaultPart == "" {
		c.defaultPart = name
	}
}

// Submit queues a job (sbatch). Validation errors return immediately.
func (c *Cluster) Submit(spec JobSpec) (*Job, error) {
	partName := spec.Partition
	if partName == "" {
		partName = c.defaultPart
	}
	part := c.partitions[partName]
	if part == nil {
		return nil, fmt.Errorf("slurm: invalid partition %q", spec.Partition)
	}
	if spec.Nodes <= 0 {
		spec.Nodes = 1
	}
	if spec.Nodes > len(part.nodes) {
		return nil, fmt.Errorf("slurm: requested %d nodes exceeds partition %s size %d", spec.Nodes, partName, len(part.nodes))
	}
	limit := spec.TimeLimit
	if limit <= 0 {
		limit = part.defaultLimit
	}
	if limit > part.maxLimit {
		return nil, fmt.Errorf("slurm: time limit %v exceeds partition max %v", limit, part.maxLimit)
	}
	spec.Partition = partName
	c.nextID++
	job := &Job{
		ID: c.nextID, Spec: spec, State: StatePending,
		SubmitAt: c.eng.Now(), Reason: "Priority", timeLimit: limit,
	}
	c.queue = append(c.queue, job)
	c.kick()
	return job, nil
}

// Cancel terminates a pending or running job (scancel).
func (c *Cluster) Cancel(job *Job) {
	switch job.State {
	case StatePending:
		for i, j := range c.queue {
			if j == job {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				break
			}
		}
		c.finish(job, StateCancelled, "cancelled while pending")
	case StateRunning:
		c.terminate(job, StateCancelled, "scancel")
	}
}

// Running returns jobs currently executing.
func (c *Cluster) Running() []*Job { return append([]*Job(nil), c.running...) }

// FreeNodes lists schedulable idle nodes in a partition.
func (c *Cluster) FreeNodes(partName string) []*hw.Node {
	part := c.partitions[partName]
	if part == nil {
		return nil
	}
	var free []*hw.Node
	for _, n := range part.nodes {
		if c.busy[n] == nil && c.reserved[n.Name] == "" && n.Up() {
			free = append(free, n)
		}
	}
	return free
}

// ReserveNode removes an idle node from scheduling (the operator action that
// provisions a Compute-as-Login node, §3.3). Fails if the node is busy.
func (c *Cluster) ReserveNode(name, tag string) (*hw.Node, error) {
	for _, part := range c.partitions {
		for _, n := range part.nodes {
			if n.Name != name {
				continue
			}
			if c.busy[n] != nil {
				return nil, fmt.Errorf("slurm: node %s busy with job %d", name, c.busy[n].ID)
			}
			c.reserved[name] = tag
			return n, nil
		}
	}
	return nil, fmt.Errorf("slurm: unknown node %q", name)
}

// ReleaseReservation returns a node to the scheduler.
func (c *Cluster) ReleaseReservation(name string) {
	delete(c.reserved, name)
	c.kick()
}

// ScheduleDowntime kills every running job and holds the queue at the given
// time; ResumeService restores scheduling. Mirrors the scheduled system
// downtime that terminated the paper's Fig 12 run 3.
func (c *Cluster) ScheduleDowntime(at time.Time) {
	c.eng.At(at, func() {
		c.down = true
		for _, j := range append([]*Job(nil), c.running...) {
			c.terminate(j, StateCancelled, "scheduled system downtime")
		}
	})
}

// ResumeService ends a downtime window.
func (c *Cluster) ResumeService() {
	c.down = false
	c.kick()
}

// kick schedules a scheduling pass (coalescing multiple triggers).
func (c *Cluster) kick() {
	if c.schedTick {
		return
	}
	c.schedTick = true
	c.eng.Schedule(0, func() {
		c.schedTick = false
		c.schedule()
	})
}

// schedule runs FIFO + EASY backfill over the pending queue.
func (c *Cluster) schedule() {
	if c.down {
		return
	}
	// Group pending jobs by partition to keep reservations independent.
	byPart := map[string][]*Job{}
	for _, j := range c.queue {
		byPart[j.Spec.Partition] = append(byPart[j.Spec.Partition], j)
	}
	for partName, jobs := range byPart {
		c.schedulePartition(partName, jobs)
	}
}

func (c *Cluster) schedulePartition(partName string, pending []*Job) {
	free := len(c.FreeNodes(partName))
	// Shadow reservation state for the first blocked job.
	var shadowAt time.Time
	shadowSet := false
	extra := 0 // nodes spare at shadow time beyond the head job's need

	for _, job := range pending {
		if job.State != StatePending {
			continue
		}
		n := job.Spec.Nodes
		if !shadowSet {
			if n <= free {
				c.start(job)
				free -= n
				continue
			}
			// First blocked job: compute when enough nodes will be free.
			shadowAt, extra = c.shadow(partName, free, n)
			shadowSet = true
			job.Reason = fmt.Sprintf("Resources (start in %s)", shadowAt.Sub(c.eng.Now()).Round(time.Second))
			continue
		}
		// Backfill: must fit now and not delay the shadow reservation.
		if n > free {
			job.Reason = "Priority"
			continue
		}
		endsBeforeShadow := c.eng.Now().Add(job.timeLimit).Before(shadowAt)
		if endsBeforeShadow || n <= extra {
			c.start(job)
			free -= n
			if !endsBeforeShadow {
				extra -= n
			}
			continue
		}
		job.Reason = "Priority (would delay reservation)"
	}
	// Compact the queue: remove started jobs.
	var still []*Job
	for _, j := range c.queue {
		if j.State == StatePending {
			still = append(still, j)
		}
	}
	c.queue = still
}

// shadow computes the earliest time the head job's node demand is met and
// the spare node count at that moment.
func (c *Cluster) shadow(partName string, freeNow, need int) (time.Time, int) {
	type release struct {
		at time.Time
		n  int
	}
	var rel []release
	for _, j := range c.running {
		if j.Spec.Partition != partName {
			continue
		}
		rel = append(rel, release{at: j.StartAt.Add(j.timeLimit), n: len(j.Nodes)})
	}
	sort.Slice(rel, func(i, k int) bool { return rel[i].at.Before(rel[k].at) })
	avail := freeNow
	at := c.eng.Now()
	for _, r := range rel {
		if avail >= need {
			break
		}
		avail += r.n
		at = r.at
	}
	if avail < need {
		// Even with everything released it never fits (can't happen: Submit
		// validates against partition size); park far in the future.
		return c.eng.Now().Add(1000 * time.Hour), 0
	}
	return at, avail - need
}

func (c *Cluster) start(job *Job) {
	free := c.FreeNodes(job.Spec.Partition)
	job.Nodes = free[:job.Spec.Nodes]
	for _, n := range job.Nodes {
		c.busy[n] = job
	}
	job.State = StateRunning
	job.StartAt = c.eng.Now()
	job.Reason = ""
	c.running = append(c.running, job)

	env := map[string]string{
		"SLURM_JOB_ID":        fmt.Sprintf("%d", job.ID),
		"SLURM_JOB_NAME":      job.Spec.Name,
		"SLURM_JOB_NUM_NODES": fmt.Sprintf("%d", job.Spec.Nodes),
		"SLURM_JOB_PARTITION": job.Spec.Partition,
		"SLURM_NODELIST":      strings.Join(job.NodeNames(), ","),
	}
	job.limitTm = c.eng.Schedule(job.timeLimit, func() {
		if job.State == StateRunning {
			c.terminate(job, StateTimeout, "time limit reached")
		}
	})
	job.proc = c.eng.Go(fmt.Sprintf("slurm-job-%d", job.ID), func(p *sim.Proc) {
		jc := &JobContext{Job: job, Nodes: job.Nodes, Proc: p, Env: env}
		err := job.Spec.Run(jc)
		if job.State != StateRunning {
			return // already terminated externally
		}
		if err != nil {
			c.release(job)
			c.finish(job, StateFailed, err.Error())
		} else {
			c.release(job)
			c.finish(job, StateCompleted, "")
		}
		c.kick()
	})
}

// terminate forcefully ends a running job.
func (c *Cluster) terminate(job *Job, state State, reason string) {
	if job.State != StateRunning {
		return
	}
	if job.limitTm != nil {
		job.limitTm.Stop()
	}
	if job.proc != nil {
		job.proc.Kill()
	}
	c.release(job)
	c.finish(job, state, reason)
	c.kick()
}

// release returns nodes and removes the job from the running set.
func (c *Cluster) release(job *Job) {
	for _, n := range job.Nodes {
		delete(c.busy, n)
	}
	for i, j := range c.running {
		if j == job {
			c.running = append(c.running[:i], c.running[i+1:]...)
			break
		}
	}
	if job.limitTm != nil {
		job.limitTm.Stop()
	}
}

// finish sets the terminal state and runs cleanups.
func (c *Cluster) finish(job *Job, state State, reason string) {
	job.State = state
	job.Reason = reason
	job.EndAt = c.eng.Now()
	for i := len(job.cleanups) - 1; i >= 0; i-- {
		job.cleanups[i]()
	}
	job.cleanups = nil
}
