package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ingress"
	"repro/internal/llm"
	"repro/internal/sched"
	"repro/internal/site"
	"repro/internal/vllm"
)

// FuzzServeArgs: for any DeployConfig, the Podman (Hops), Apptainer (El
// Dorado) and Helm (Goodall) artifacts Plan renders configure the same
// engine, the one the config asks for. Each vLLM command is parsed by the
// engine's own flag parser: the Podman and Apptainer ones as read back from
// the rendered text, as a user would copy them, and the Helm one from the
// chart values Deploy installs, whose file the plan shows.
func FuzzServeArgs(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(1), uint16(65535), false, uint16(0), uint16(0), uint16(0), uint16(0), "")
	f.Add(uint8(3), uint8(1), uint8(1), uint16(8192), true, uint16(64), uint16(250), uint16(2000), uint16(9000), "chat")
	f.Add(uint8(2), uint8(4), uint8(2), uint16(8192), false, uint16(4096), uint16(0), uint16(2048), uint16(8000), "code/large")
	d := NewDeployer(site.New(site.Options{Small: true, Seed: 1}))
	goodall, err := d.target(PlatformGoodall)
	if err != nil {
		f.Fatal(err)
	}
	models := llm.Catalog()
	f.Fuzz(func(t *testing.T, model, tp, pp uint8, maxLen uint16, noPrefix bool, offload, xfer, ovr, port uint16, served string) {
		cfg := DeployConfig{
			Model: models[int(model)%len(models)], TensorParallel: int(tp % 9), PipelineParallel: int(pp % 5),
			MaxModelLen: int(maxLen), Offline: true, DisablePrefixCache: noPrefix,
			CPUOffloadBlocks: int(offload), KVTransferMicros: int(xfer), NumGPUBlocksOverride: int(ovr),
			Port: int(port), ServedName: servedName(served),
		}
		want := cfg
		if _, err := d.check(VLLMPackage(), PlatformHops, &want); err != nil {
			t.Fatalf("check refused %+v: %v", cfg, err)
		}
		platforms := []Platform{PlatformHops, PlatformEldorado, PlatformGoodall}
		if want.PipelineParallel > 1 || want.TensorParallel > goodall.gpusPerNode {
			platforms = platforms[:2] // the Helm chart runs no Ray bootstrap, and a pod holds one node's GPUs
		}
		for _, pf := range platforms {
			plan, err := d.Plan(VLLMPackage(), pf, cfg)
			if err != nil {
				t.Fatalf("%s: Plan: %v", pf.Name, err)
			}
			sa, err := vllm.ParseServeArgs(commandOf(t, d, cfg, plan))
			if err != nil {
				t.Fatalf("%s: %v\n%s", pf.Name, err, plan.Artifact)
			}
			name := sa.ServedModelName
			if name == "" {
				name = sa.ModelArg
			}
			got := []any{sa.TensorParallel, sa.PipelineParallel, sa.MaxModelLen, sa.NoPrefixCache,
				sa.CPUOffloadBlocks, sa.KVTransferMicros, sa.GPUBlocksOvr, sa.Port, name, sa.DisableLogReqs}
			exp := []any{want.TensorParallel, want.PipelineParallel, want.MaxModelLen, want.DisablePrefixCache,
				want.CPUOffloadBlocks, want.KVTransferMicros, want.NumGPUBlocksOverride, want.Port, want.RouteName(), true}
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Fatalf("%s engine settings %v, want %v (tp pp max-len no-prefix offload xfer blocks port name no-log)\n%s",
					pf.Name, got, exp, plan.Artifact)
			}
		}
	})
}

// servedName keeps a fuzzed alias to the characters a model name uses, so
// the rendered command lines need no shell quoting.
func servedName(s string) string {
	s = strings.Map(func(r rune) rune {
		if r < 0x80 && (r == '-' || r == '.' || r == '/' || r == '_' ||
			'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9') {
			return r
		}
		return -1
	}, s)
	if s == "" || !('a' <= s[0] && s[0] <= 'z' || 'A' <= s[0] && s[0] <= 'Z') {
		return ""
	}
	return s
}

// commandOf reads the vLLM command back out of a plan: the indented
// argument lines after the image on a Podman or Apptainer command line, or,
// for a Helm plan, the image command of the chart values Deploy installs
// for cfg, once the plan's artifact is checked to be those values' file.
func commandOf(t *testing.T, d *Deployer, cfg DeployConfig, plan *Plan) []string {
	t.Helper()
	if plan.Runtime == "helm" {
		tg, err := d.check(VLLMPackage(), plan.Platform, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		values := d.helmValues(VLLMPackage(), tg.image, cfg)
		if file := string(values.YAML()); plan.Artifact != file {
			t.Fatalf("%s: plan shows\n%s\nbut Deploy installs\n%s", plan.Platform.Name, plan.Artifact, file)
		}
		return values.Image.Command
	}
	cmd := []string{"vllm"}
	for _, line := range strings.Split(plan.Artifact, "\n") {
		if strings.HasPrefix(line, "    ") {
			cmd = append(cmd, strings.TrimSuffix(strings.TrimSpace(line), " \\"))
		}
	}
	return cmd
}

// FuzzParseFleetFlag: every fleet spec ParseFleetFlag accepts yields
// entries that deploy as written: a model, a positive weight, no negative
// objective, and a class and route policy their own parsers accept.
func FuzzParseFleetFlag(f *testing.F) {
	f.Add("chat=meta-llama/Llama-3.1-8B-Instruct:2:p95=30s:policy=session,bulk=Qwen/Qwen2.5-Coder-7B-Instruct:1:class=batch")
	f.Add("meta-llama/Llama-3.1-8B-Instruct:ttft=500ms:policy=prefix")
	f.Add("a=b=meta-llama/Llama-3.1-8B-Instruct:p95=-1s")
	f.Fuzz(func(t *testing.T, spec string) {
		entries, err := ParseFleetFlag(spec)
		if err != nil {
			return
		}
		if len(entries) == 0 {
			t.Fatalf("accepted %q with no entries", spec)
		}
		for _, e := range entries {
			if e.Model == nil || e.Weight < 1 || e.SLOTargetP95 < 0 || e.TTFTTarget < 0 {
				t.Fatalf("accepted %q as %+v", spec, e)
			}
			if _, err := sched.ParseClass(e.Class); err != nil {
				t.Fatalf("accepted %q with class %q: %v", spec, e.Class, err)
			}
			if _, err := ingress.ParsePolicy(e.RoutePolicy); err != nil {
				t.Fatalf("accepted %q with route policy %q: %v", spec, e.RoutePolicy, err)
			}
		}
	})
}
