// Package flux simulates the Flux resource manager used on El Dorado:
// jobspec-driven allocations, a first-fit scheduler over a broker-managed
// resource set, nested instances (flux alloc inside an allocation), and
// urgency-ordered queueing. The user-visible differences from Slurm —
// jobspec instead of sbatch directives, nested instances instead of job
// steps — are preserved so internal/core can target either manager.
package flux

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
)

// State is a Flux job state.
type State string

const (
	StateSched    State = "SCHED"
	StateRun      State = "RUN"
	StateComplete State = "COMPLETED"
	StateFailed   State = "FAILED"
	StateCanceled State = "CANCELED"
	StateTimeout  State = "TIMEOUT"
)

// Jobspec is the canonical Flux job description (version 1 subset).
type Jobspec struct {
	Name     string
	NumNodes int
	// Duration is the allocation lifetime (0 = instance default).
	Duration time.Duration
	// Urgency orders the queue (0-31, higher first; default 16).
	Urgency int
	Run     func(fc *JobContext) error
}

// Job is a submitted Flux job.
type Job struct {
	ID       string // f-prefixed, Flux style
	Spec     Jobspec
	State    State
	Submit   time.Time
	Start    time.Time
	End      time.Time
	Nodes    []*hw.Node
	Reason   string
	done     *sim.Signal
	proc     *sim.Proc
	limitTm  *sim.Timer
	cleanups []func()
	seq      int
}

// Done fires at any terminal state.
func (j *Job) Done() *sim.Signal { return j.done }

// JobContext is the running job's view.
type JobContext struct {
	Job      *Job
	Nodes    []*hw.Node
	Proc     *sim.Proc
	Env      map[string]string
	instance *Instance
}

// OnCleanup registers teardown to run at job end.
func (jc *JobContext) OnCleanup(fn func()) {
	jc.Job.cleanups = append(jc.Job.cleanups, fn)
}

// Alloc creates a nested Flux instance over a subset of this job's nodes —
// the Flux-native way to subdivide an allocation.
func (jc *JobContext) Alloc(nNodes int) (*Instance, error) {
	if nNodes > len(jc.Nodes) {
		return nil, fmt.Errorf("flux: nested alloc wants %d nodes, allocation has %d", nNodes, len(jc.Nodes))
	}
	child := NewInstance(jc.instance.eng, jc.instance.Name+"/"+jc.Job.ID, jc.Nodes[:nNodes])
	return child, nil
}

// Instance is one Flux instance: a broker tree over a resource set.
type Instance struct {
	Name string
	eng  *sim.Engine

	nodes   []*hw.Node
	busy    map[*hw.Node]*Job
	queue   []*Job
	running []*Job

	defaultDuration time.Duration
	nextSeq         int
	tick            bool
}

// NewInstance starts a Flux instance over nodes.
func NewInstance(eng *sim.Engine, name string, nodes []*hw.Node) *Instance {
	return &Instance{
		Name: name, eng: eng, nodes: nodes,
		busy:            make(map[*hw.Node]*Job),
		defaultDuration: 4 * time.Hour,
	}
}

// FreeNodes returns currently unallocated, healthy nodes.
func (in *Instance) FreeNodes() []*hw.Node {
	var free []*hw.Node
	for _, n := range in.nodes {
		if in.busy[n] == nil && n.Up() {
			free = append(free, n)
		}
	}
	return free
}

// Submit queues a jobspec (flux batch / flux run).
func (in *Instance) Submit(spec Jobspec) (*Job, error) {
	if spec.NumNodes <= 0 {
		spec.NumNodes = 1
	}
	if spec.NumNodes > len(in.nodes) {
		return nil, fmt.Errorf("flux: unsatisfiable request: %d nodes > instance size %d", spec.NumNodes, len(in.nodes))
	}
	if spec.Duration <= 0 {
		spec.Duration = in.defaultDuration
	}
	if spec.Urgency == 0 {
		spec.Urgency = 16
	}
	in.nextSeq++
	job := &Job{
		ID: fmt.Sprintf("f%06d", in.nextSeq), Spec: spec, State: StateSched,
		Submit: in.eng.Now(), done: in.eng.NewSignal(), seq: in.nextSeq,
	}
	in.queue = append(in.queue, job)
	in.kick()
	return job, nil
}

// Cancel terminates a job (flux cancel).
func (in *Instance) Cancel(job *Job) {
	switch job.State {
	case StateSched:
		for i, j := range in.queue {
			if j == job {
				in.queue = append(in.queue[:i], in.queue[i+1:]...)
				break
			}
		}
		in.finish(job, StateCanceled, "canceled")
	case StateRun:
		in.terminate(job, StateCanceled, "canceled")
	}
}

// Pending returns queued jobs in scheduling order.
func (in *Instance) Pending() []*Job {
	out := append([]*Job(nil), in.queue...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Spec.Urgency != out[j].Spec.Urgency {
			return out[i].Spec.Urgency > out[j].Spec.Urgency
		}
		return out[i].seq < out[j].seq
	})
	return out
}

func (in *Instance) kick() {
	if in.tick {
		return
	}
	in.tick = true
	in.eng.Schedule(0, func() {
		in.tick = false
		in.schedule()
	})
}

// schedule is first-fit over the urgency-ordered queue: unlike Slurm's
// strict FIFO+backfill, Flux's default policy starts any queued job whose
// resource demand is satisfiable now.
func (in *Instance) schedule() {
	for _, job := range in.Pending() {
		free := in.FreeNodes()
		if job.Spec.NumNodes > len(free) {
			job.Reason = "insufficient resources"
			continue
		}
		in.start(job, free[:job.Spec.NumNodes])
	}
	var still []*Job
	for _, j := range in.queue {
		if j.State == StateSched {
			still = append(still, j)
		}
	}
	in.queue = still
}

func (in *Instance) start(job *Job, nodes []*hw.Node) {
	job.Nodes = nodes
	for _, n := range nodes {
		in.busy[n] = job
	}
	job.State = StateRun
	job.Start = in.eng.Now()
	in.running = append(in.running, job)
	env := map[string]string{
		"FLUX_JOB_ID":     job.ID,
		"FLUX_JOB_SIZE":   fmt.Sprintf("%d", job.Spec.NumNodes),
		"FLUX_URI":        "local:///run/flux/" + in.Name,
		"FLUX_JOB_NNODES": fmt.Sprintf("%d", job.Spec.NumNodes),
	}
	job.limitTm = in.eng.Schedule(job.Spec.Duration, func() {
		if job.State == StateRun {
			in.terminate(job, StateTimeout, "allocation expired")
		}
	})
	job.proc = in.eng.Go("flux-"+job.ID, func(p *sim.Proc) {
		jc := &JobContext{Job: job, Nodes: job.Nodes, Proc: p, Env: env, instance: in}
		err := job.Spec.Run(jc)
		if job.State != StateRun {
			return
		}
		in.release(job)
		if err != nil {
			in.finish(job, StateFailed, err.Error())
		} else {
			in.finish(job, StateComplete, "")
		}
		in.kick()
	})
}

func (in *Instance) terminate(job *Job, state State, reason string) {
	if job.State != StateRun {
		return
	}
	if job.proc != nil {
		job.proc.Kill()
	}
	in.release(job)
	in.finish(job, state, reason)
	in.kick()
}

func (in *Instance) release(job *Job) {
	for _, n := range job.Nodes {
		delete(in.busy, n)
	}
	for i, j := range in.running {
		if j == job {
			in.running = append(in.running[:i], in.running[i+1:]...)
			break
		}
	}
	if job.limitTm != nil {
		job.limitTm.Stop()
	}
}

func (in *Instance) finish(job *Job, state State, reason string) {
	job.State = state
	job.Reason = reason
	job.End = in.eng.Now()
	for i := len(job.cleanups) - 1; i >= 0; i-- {
		job.cleanups[i]()
	}
	job.cleanups = nil
	job.done.Fire()
}
