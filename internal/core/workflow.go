package core

import (
	"fmt"

	"repro/internal/cruntime"
	"repro/internal/fsim"
	"repro/internal/llm"
	"repro/internal/sim"
)

// FetchModel runs the §3.1 workflow: a containerized git clone of the full
// model repository on the internet-connected build host (Fig 2), followed by
// a containerized `aws s3 sync` into site object storage excluding the .git
// objects (Fig 3). Idempotent: an already-synced model is skipped quickly.
func (d *Deployer) FetchModel(p *sim.Proc, model *llm.ModelSpec, token string) error {
	s := d.Site
	scratchDir := "/scratch/models"
	cloneDir := scratchDir + "/" + model.Name

	if s.BuildScratch.TotalSize(cloneDir) == 0 {
		git := &cruntime.Podman{Host: s.Host}
		spec := cruntime.Spec{
			Name:  "model-clone",
			Image: "alpine/git:latest",
			Mounts: []cruntime.Mount{{
				FS: s.BuildScratch, HostPath: scratchDir, CtrPath: "/git/models",
			}},
			WorkingDir: "/git/models",
			Args:       []string{"clone", fmt.Sprintf("https://user:%s@%s/%s", token, d.Profile.HubHost, model.Name)},
			Props:      map[string]any{"hub": s.Hub},
		}
		ctr, err := git.Run(p, s.Build, spec)
		if err != nil {
			return err
		}
		p.Wait(ctr.Done())
		if ctr.ExitErr != nil {
			return fmt.Errorf("core: model download failed: %w", ctr.ExitErr)
		}
	}

	// Upload with the AWS client container (checksum mode per Fig 3).
	aws := &cruntime.Podman{Host: s.Host}
	mk := cruntime.Spec{
		Name:  "s3-mb",
		Image: "amazon/aws-cli:latest",
		Env:   d.awsEnv(),
		Args:  []string{"s3", "mb", "s3://" + d.Profile.ModelBucket},
	}
	ctr, err := aws.Run(p, s.Build, mk)
	if err != nil {
		return err
	}
	p.Wait(ctr.Done())
	if ctr.ExitErr != nil {
		return fmt.Errorf("core: bucket create failed: %w", ctr.ExitErr)
	}
	sync := cruntime.Spec{
		Name:  "model-upload",
		Image: "amazon/aws-cli:latest",
		Env:   d.awsEnv(),
		Mounts: []cruntime.Mount{{
			FS: s.BuildScratch, HostPath: scratchDir, CtrPath: "/aws/models",
		}},
		WorkingDir: "/aws",
		Args: []string{"s3", "sync",
			"./models/" + model.Name,
			fmt.Sprintf("s3://%s/%s", d.Profile.ModelBucket, model.Name),
			"--exclude", ".git*"},
	}
	ctr, err = aws.Run(p, s.Build, sync)
	if err != nil {
		return err
	}
	p.Wait(ctr.Done())
	if ctr.ExitErr != nil {
		return fmt.Errorf("core: model upload failed: %w", ctr.ExitErr)
	}
	return nil
}

func (d *Deployer) awsEnv() map[string]string {
	return map[string]string{
		"AWS_ACCESS_KEY_ID":                d.Profile.AccessKey,
		"AWS_SECRET_ACCESS_KEY":            d.Profile.SecretKey,
		"AWS_ENDPOINT_URL":                 d.Profile.S3Endpoint,
		"AWS_REQUEST_CHECKSUM_CALCULATION": "when_required",
		"AWS_MAX_ATTEMPTS":                 "10",
	}
}

// StageModel syncs a model from object storage onto a platform's parallel
// filesystem (where Kubernetes uses a PVC init container instead). It runs
// the AWS client container on the platform's login node, so Hops traffic
// traverses the (possibly misconfigured) Hops↔S3 route of §2.4.
func (d *Deployer) StageModel(p *sim.Proc, pf Platform, model *llm.ModelSpec) error {
	t, err := d.target(pf)
	if err != nil {
		return err
	}
	fs := t.fs
	if fs == nil {
		return fmt.Errorf("core: platform %s has no shared filesystem (use the Helm path)", pf.Name)
	}
	if HasModel(fs, model) {
		return nil
	}
	aws := &cruntime.Podman{Host: d.Site.Host}
	spec := cruntime.Spec{
		Name:  "model-stage",
		Image: "amazon/aws-cli:latest",
		Env:   d.awsEnv(),
		Mounts: []cruntime.Mount{{
			FS: fs, HostPath: "/models", CtrPath: "/aws/models",
		}},
		WorkingDir: "/aws",
		Args: []string{"s3", "sync",
			fmt.Sprintf("s3://%s/%s", d.Profile.ModelBucket, model.Name),
			"./models/" + model.Name},
	}
	ctr, err := aws.Run(p, t.stageHost, spec)
	if err != nil {
		return err
	}
	p.Wait(ctr.Done())
	if ctr.ExitErr != nil {
		return fmt.Errorf("core: staging to %s failed: %w", fs.Name, ctr.ExitErr)
	}
	if !HasModel(fs, model) {
		return fmt.Errorf("core: staging completed but %s still incomplete on %s", model.Name, fs.Name)
	}
	return nil
}

// SeedModelOn writes a model's weights where pf's services read them: onto
// the parallel filesystem of an HPC platform (SeedModel), or into the site
// bucket a Kubernetes PVC init container pulls from (SeedModelToS3). It is
// the fast-path setup for benchmarks and examples, in place of the
// FetchModel and StageModel workflow.
func (d *Deployer) SeedModelOn(p *sim.Proc, pf Platform, model *llm.ModelSpec) error {
	t, err := d.target(pf)
	if err != nil {
		return err
	}
	if t.fs == nil {
		return SeedModelToS3(p, d, model)
	}
	return SeedModel(p, t.fs, model)
}

// SeedModel writes a model's files directly onto fs under the conventional
// directory (fast-path setup for benchmarks and examples).
func SeedModel(p *sim.Proc, fs *fsim.FS, model *llm.ModelSpec) error {
	dir := ModelDirOn(fs, model)
	for _, f := range model.RepoFiles() {
		if f.Name == "config.json" {
			content := fmt.Sprintf(`{"_name_or_path": "%s"}`, model.Name)
			if _, err := fs.WriteContent(dir+"/"+f.Name, []byte(content), p.Now()); err != nil {
				return err
			}
			continue
		}
		if _, err := fs.WriteMeta(dir+"/"+f.Name, f.Size, p.Now()); err != nil {
			return err
		}
	}
	return nil
}

// SeedModelToS3 uploads a model's files directly into the site bucket
// (fast-path for Kubernetes benchmarks).
func SeedModelToS3(p *sim.Proc, d *Deployer, model *llm.ModelSpec) error {
	s := d.Site
	s.S3ABQ.CreateBucket(d.Profile.ModelBucket)
	for _, f := range model.RepoFiles() {
		key := model.Name + "/" + f.Name
		var content []byte
		if f.Name == "config.json" {
			content = []byte(fmt.Sprintf(`{"_name_or_path": "%s"}`, model.Name))
		}
		if _, err := s.S3ABQ.Put(d.Profile.ModelBucket, key, f.Size, content, nil); err != nil {
			return err
		}
	}
	return nil
}
