package main

import (
	"flag"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestBenchFleetMembersCarryEngineFlags: under -models, every fleet member
// deploys with the pipeline width and the three engine-cache flags the
// command line set, as a single deployment does, not with their zero
// values.
func TestBenchFleetMembersCarryEngineFlags(t *testing.T) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	dep := deployFlags(fs)
	if err := fs.Parse([]string{
		"-tp", "1", "-pp", "2", "-max-model-len", "8192",
		"-models", "chat=meta-llama/Llama-3.1-8B-Instruct:2,code=Qwen/Qwen2.5-Coder-7B-Instruct:1",
		"-cpu-offload-blocks", "4096", "-kv-transfer-micros", "30", "-gpu-blocks-override", "2048",
	}); err != nil {
		t.Fatal(err)
	}
	if err := dep.resolve(true); err != nil {
		t.Fatal(err)
	}
	var members []core.FleetModel
	if err := run(1, func(p *sim.Proc, d *core.Deployer) (err error) {
		members, err = core.SeedFleet(p, d, dep.pf, dep.cfg, dep.members)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("%d fleet members, want 2", len(members))
	}
	for _, m := range members {
		cfg := m.Config
		if cfg.PipelineParallel != 2 || cfg.CPUOffloadBlocks != 4096 || cfg.KVTransferMicros != 30 || cfg.NumGPUBlocksOverride != 2048 {
			t.Errorf("member %s: pp=%d cpu-offload-blocks=%d kv-transfer-micros=%d gpu-blocks-override=%d, want 2, 4096, 30, 2048",
				cfg.RouteName(), cfg.PipelineParallel, cfg.CPUOffloadBlocks, cfg.KVTransferMicros, cfg.NumGPUBlocksOverride)
		}
	}
}
