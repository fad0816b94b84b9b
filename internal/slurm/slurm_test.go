package slurm

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func newCluster(t *testing.T, nNodes int) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine(1)
	fabric := netsim.New(eng)
	c := New(eng, "hops")
	var nodes []*hw.Node
	for i := 0; i < nNodes; i++ {
		nodes = append(nodes, hw.NewNode(fabric, hw.NodeSpec{
			Name: fmt.Sprintf("hops%02d", i+1), Cluster: "hops",
			GPUModel: hw.H100SXM, GPUCount: 4,
		}))
	}
	c.AddPartition("batch", nodes, time.Hour, 24*time.Hour, true)
	return eng, c
}

func sleepJob(name string, nodes int, d, limit time.Duration) JobSpec {
	return JobSpec{
		Name: name, Nodes: nodes, TimeLimit: limit,
		Run: func(jc *JobContext) error {
			jc.Proc.Sleep(d)
			return nil
		},
	}
}

func TestJobLifecycle(t *testing.T) {
	eng, c := newCluster(t, 2)
	var envSeen map[string]string
	var nodesSeen int
	job, err := c.Submit(JobSpec{
		Name: "hello", Nodes: 2, TimeLimit: time.Hour,
		Run: func(jc *JobContext) error {
			envSeen = jc.Env
			nodesSeen = len(jc.Nodes)
			jc.Proc.Sleep(10 * time.Minute)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if job.State != StateCompleted {
		t.Fatalf("state = %s", job.State)
	}
	if nodesSeen != 2 {
		t.Fatalf("nodes = %d", nodesSeen)
	}
	if envSeen["SLURM_JOB_NUM_NODES"] != "2" || envSeen["SLURM_JOB_ID"] == "" {
		t.Fatalf("env = %v", envSeen)
	}
	if !strings.Contains(envSeen["SLURM_NODELIST"], "hops01") {
		t.Fatalf("nodelist = %s", envSeen["SLURM_NODELIST"])
	}
	if got := job.EndAt.Sub(job.StartAt); got != 10*time.Minute {
		t.Fatalf("runtime = %v", got)
	}
	if len(c.FreeNodes("batch")) != 2 {
		t.Fatal("nodes not released")
	}
}

func TestFIFOQueueing(t *testing.T) {
	eng, c := newCluster(t, 2)
	a, _ := c.Submit(sleepJob("a", 2, time.Hour, 2*time.Hour))
	b, _ := c.Submit(sleepJob("b", 2, time.Hour, 2*time.Hour))
	eng.RunFor(time.Minute)
	if a.State != StateRunning || b.State != StatePending {
		t.Fatalf("a=%s b=%s", a.State, b.State)
	}
	eng.Run()
	if b.State != StateCompleted {
		t.Fatalf("b = %s", b.State)
	}
	if !b.StartAt.After(a.EndAt.Add(-time.Second)) {
		t.Fatalf("b started %v before a ended %v", b.StartAt, a.EndAt)
	}
}

func TestBackfillSmallJobJumpsQueue(t *testing.T) {
	eng, c := newCluster(t, 4)
	// Long job on 3 nodes; big job wants 4 (blocked); a short 1-node job
	// fits in the spare node and ends before the reservation → backfills.
	long, _ := c.Submit(sleepJob("long", 3, 10*time.Hour, 10*time.Hour))
	big, _ := c.Submit(sleepJob("big", 4, time.Hour, 2*time.Hour))
	small, _ := c.Submit(sleepJob("small", 1, 30*time.Minute, time.Hour))
	eng.RunFor(time.Minute)
	if long.State != StateRunning {
		t.Fatalf("long = %s", long.State)
	}
	if big.State != StatePending {
		t.Fatalf("big = %s (must wait for 4 nodes)", big.State)
	}
	if small.State != StateRunning {
		t.Fatalf("small = %s (should backfill into the spare node)", small.State)
	}
	eng.Run()
	if big.State != StateCompleted {
		t.Fatalf("big = %s", big.State)
	}
}

func TestBackfillDoesNotDelayReservation(t *testing.T) {
	eng, c := newCluster(t, 4)
	// 3 nodes busy for 1h; head job needs 4 nodes → shadow at t=1h.
	// A 1-node job with a 3h limit would hold the spare node past the
	// shadow time and must NOT backfill.
	c.Submit(sleepJob("running", 3, time.Hour, time.Hour))
	big, _ := c.Submit(sleepJob("big", 4, time.Hour, 2*time.Hour))
	greedy, _ := c.Submit(sleepJob("greedy", 1, 3*time.Hour, 3*time.Hour))
	eng.RunFor(time.Minute)
	if greedy.State != StatePending {
		t.Fatalf("greedy = %s (backfilling would delay the reservation)", greedy.State)
	}
	eng.RunFor(65 * time.Minute)
	if big.State != StateRunning {
		t.Fatalf("big = %s at shadow time", big.State)
	}
	eng.Run()
}

func TestTimeLimitKillsJob(t *testing.T) {
	// The §2.1 pain point: persistent services die at the job time limit.
	eng, c := newCluster(t, 1)
	cleaned := false
	job, _ := c.Submit(JobSpec{
		Name: "vllm-serve", Nodes: 1, TimeLimit: 2 * time.Hour,
		Run: func(jc *JobContext) error {
			jc.OnCleanup(func() { cleaned = true })
			jc.Proc.Sleep(100 * time.Hour) // a "persistent" service
			return nil
		},
	})
	eng.Run()
	if job.State != StateTimeout {
		t.Fatalf("state = %s, want TIMEOUT", job.State)
	}
	if !cleaned {
		t.Fatal("cleanup (container stop) did not run")
	}
	if got := job.EndAt.Sub(job.StartAt); got != 2*time.Hour {
		t.Fatalf("killed at %v, want 2h", got)
	}
	if len(c.FreeNodes("batch")) != 1 {
		t.Fatal("node not released after timeout")
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	eng, c := newCluster(t, 1)
	run, _ := c.Submit(sleepJob("run", 1, 10*time.Hour, 10*time.Hour))
	pend, _ := c.Submit(sleepJob("pend", 1, time.Hour, time.Hour))
	eng.RunFor(time.Minute)
	c.Cancel(pend)
	eng.RunFor(time.Minute)
	if pend.State != StateCancelled {
		t.Fatalf("pend = %s", pend.State)
	}
	c.Cancel(run)
	eng.RunFor(time.Minute)
	if run.State != StateCancelled {
		t.Fatalf("run = %s", run.State)
	}
	if len(c.FreeNodes("batch")) != 1 {
		t.Fatal("node not released after cancel")
	}
}

func TestFailedJob(t *testing.T) {
	eng, c := newCluster(t, 1)
	job, _ := c.Submit(JobSpec{
		Name: "crash", Nodes: 1, TimeLimit: time.Hour,
		Run: func(jc *JobContext) error { return errors.New("segfault") },
	})
	eng.Run()
	if job.State != StateFailed || job.Reason != "segfault" {
		t.Fatalf("state=%s reason=%q", job.State, job.Reason)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, c := newCluster(t, 2)
	if _, err := c.Submit(JobSpec{Name: "x", Nodes: 5}); err == nil {
		t.Fatal("oversize job should be rejected")
	}
	if _, err := c.Submit(JobSpec{Name: "x", Partition: "ghost", Nodes: 1}); err == nil {
		t.Fatal("bad partition should be rejected")
	}
	if _, err := c.Submit(JobSpec{Name: "x", Nodes: 1, TimeLimit: 100 * time.Hour}); err == nil {
		t.Fatal("over-limit job should be rejected")
	}
}

func TestNodeReservationForCaL(t *testing.T) {
	eng, c := newCluster(t, 2)
	n, err := c.ReserveNode("hops02", "cal")
	if err != nil || n.Name != "hops02" {
		t.Fatalf("reserve: %v %v", n, err)
	}
	// A 2-node job can no longer run.
	if _, err := c.Submit(sleepJob("two", 2, time.Minute, time.Hour)); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Minute)
	if len(c.queue) != 1 {
		t.Fatal("2-node job should be stuck pending with one node reserved")
	}
	c.ReleaseReservation("hops02")
	eng.Run()
	if len(c.queue) != 0 {
		t.Fatal("job should run after reservation release")
	}
	// Reserving a busy node fails.
	c.Submit(sleepJob("busy", 2, time.Hour, time.Hour))
	eng.RunFor(time.Minute)
	if _, err := c.ReserveNode("hops01", "cal"); err == nil {
		t.Fatal("reserving a busy node should fail")
	}
}

func TestScheduledDowntime(t *testing.T) {
	eng, c := newCluster(t, 1)
	job, _ := c.Submit(sleepJob("victim", 1, 10*time.Hour, 12*time.Hour))
	c.ScheduleDowntime(sim.Epoch.Add(30 * time.Minute))
	eng.RunFor(time.Hour)
	if job.State != StateCancelled || !strings.Contains(job.Reason, "downtime") {
		t.Fatalf("state=%s reason=%q", job.State, job.Reason)
	}
	// Queue holds during downtime.
	held, _ := c.Submit(sleepJob("held", 1, time.Minute, time.Hour))
	eng.RunFor(time.Minute)
	if held.State != StatePending {
		t.Fatalf("held = %s during downtime", held.State)
	}
	c.ResumeService()
	eng.Run()
	if held.State != StateCompleted {
		t.Fatalf("held = %s after resume", held.State)
	}
}

// TestSchedulerInvariants hammers the scheduler with random jobs and checks:
// nodes are never double-allocated, every job terminates, and all nodes
// return to the pool.
func TestSchedulerInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng, c := newCluster(t, 4)
		var jobs []*Job
		n := 5 + rng.Intn(15)
		for i := 0; i < n; i++ {
			spec := sleepJob(fmt.Sprintf("j%d", i),
				1+rng.Intn(4),
				time.Duration(1+rng.Intn(120))*time.Minute,
				time.Duration(121+rng.Intn(120))*time.Minute)
			delay := time.Duration(rng.Intn(180)) * time.Minute
			eng.Schedule(delay, func() {
				j, err := c.Submit(spec)
				if err == nil {
					jobs = append(jobs, j)
				}
			})
		}
		// Invariant probe: busy nodes never exceed the pool.
		violated := false
		for i := 0; i < 50; i++ {
			eng.Schedule(time.Duration(i)*10*time.Minute, func() {
				if len(c.busy) > 4 {
					violated = true
				}
				for _, j := range c.running {
					if j.State != StateRunning {
						violated = true
					}
				}
			})
		}
		eng.Run()
		if violated {
			t.Logf("seed %d: allocation invariant violated", seed)
			return false
		}
		for _, j := range jobs {
			if j.State != StateCompleted {
				t.Logf("seed %d: job %d ended %s", seed, j.ID, j.State)
				return false
			}
		}
		if len(c.FreeNodes("batch")) != 4 || len(c.busy) != 0 {
			t.Logf("seed %d: nodes leaked", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
