package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/pattern"
	"repro/internal/semantic"
)

// train_dir repeats a full training build over a directory of CSV shards
// of a fixed corpus (see trainingCorpus; the seed does not change it)
// — corpus read, pattern encoding, statistics counting, merge and
// canonicalization, distant supervision, calibration and selection over
// all 144 candidate languages — followed by a Save/Load round trip of the
// model. It scores no pairs and serves no HTTP while it measures.
const (
	trainColumns = 400
	// The labeled test set the trained model is scored on is fixed: the
	// same columns whatever the workload seed.
	testSeed    = 424242
	testColumns = 300
	trainDeep   = 3 // traced runs replay every third test column through the lower layers
	// Set-up only writes the shards, so it is short; more repeats keep its
	// median steady.
	trainSetups = 25
)

type trainSetup struct {
	dir    string
	corpus []*corpus.Column
	sem    *semantic.Model
	test   []*corpus.Column
}

func runTrain(b *bench) error {
	in, err := timeSetups(b, trainSetups, func(i int) (*trainSetup, error) {
		in := &trainSetup{dir: filepath.Join(b.work, fmt.Sprintf("setup-%d", i)), corpus: trainingCorpus(trainColumns)}
		if err := writeShards(in.dir, in.corpus); err != nil {
			return nil, err
		}
		sem, err := semantic.Train(&corpus.Corpus{Columns: in.corpus}, semantic.DefaultConfig())
		if err != nil {
			return nil, err
		}
		in.sem = sem
		in.test = labeledColumns(testSeed, testColumns, 5, 40, 0.3)
		return in, nil
	})
	if err != nil {
		return err
	}

	stop := b.measure()
	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(b.seconds)
	var builds []*build
	var ops, lag []float64
	var fresh, loaded *core.Detector
	var firstSum [32]byte
	columns := 0
	ended := start
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		lag = append(lag, ms(t0.Sub(ended)))
		b.attempted++
		bl, err := buildDir(in.dir, nil)
		if err != nil {
			b.mismatch("build %d: %v", i, err)
			ended = time.Now()
			continue
		}
		var buf bytes.Buffer
		if err := bl.res.Detector.Save(&buf); err != nil {
			b.mismatch("build %d: save: %v", i, err)
			ended = time.Now()
			continue
		}
		sum := sha256.Sum256(buf.Bytes())
		det, err := core.Load(&buf)
		ended = time.Now()
		b.trace.add("pipeline.build", uint64(i), 0, t0, ended)
		if err != nil {
			b.mismatch("build %d: load: %v", i, err)
			continue
		}
		// The build is deterministic: every build of the same shards must
		// save to the same bytes.
		if i == 0 {
			firstSum = sum
		} else if sum != firstSum {
			b.mismatch("build %d: saved model differs from build 0", i)
		}
		builds = append(builds, bl)
		fresh, loaded = bl.res.Detector, det
		d := ended.Sub(t0)
		ops = append(ops, ms(d))
		columns += int(bl.res.Columns)
	}
	b.runtimeSince(rt0)
	stop(columns)
	if fresh == nil {
		return fmt.Errorf("no build completed")
	}
	// Both figures come from the median build, so one build slowed by the
	// host does not move them.
	b.e2e["latency_p50_ms"] = quantile(ops, 0.5)
	b.e2e["throughput_per_s"] = trainColumns / (b.e2e["latency_p50_ms"] / 1e3)
	logf("%d builds of %d columns over %d candidate languages with %d workers, build+save+load %s ms",
		len(builds), trainColumns, builds[0].res.Report.CandidateLanguages, trainWorkers, joinFloats(ops, "%.0f"))
	b.layer["loadgen.lag_ms"] = quantile(lag, 0.99)
	b.layer["loadgen.sent"] = float64(len(ops))

	props := newInputProps(fresh)
	for _, c := range in.corpus[:200] {
		props.add(c.Values)
	}
	props.report("training columns")

	// Score the fresh model on the fixed labeled set, and check that the
	// reloaded model, served through the batch API, finds the same.
	hot0 := core.HotPath()
	r := &replayer{tr: b.trace, det: fresh, sem: in.sem}
	var q quality
	test := map[string][]string{}
	for i, c := range in.test {
		test[fmt.Sprintf("t%03d", i)] = c.Values
	}
	s, err := startServer(&model{det: loaded, sem: in.sem}, filepath.Join(b.work, "jobs"), 1)
	if err != nil {
		return err
	}
	defer s.close()
	jr, err := s.runJob(b, 0, test)
	hot1 := core.HotPath()
	if err != nil {
		b.attempted++
		b.mismatch("labeled-set job: %v", err)
		return nil
	}
	if err := b.verifyJob(r, jr, test, 1, trainDeep, b.trace != nil); err != nil {
		return err
	}
	for i, c := range in.test {
		q.add(c, jr.findings[fmt.Sprintf("t%03d", i)])
	}
	b.reportQuality(q)
	if b.trace == nil {
		return nil
	}
	b.layer["core.pairs"] = float64(hot1.Pairs - hot0.Pairs)
	b.layer["core.lang_pairs"] = float64(hot1.LanguagePairs - hot0.LanguagePairs)
	b.columnLayers(r)
	b.serviceLayers(s, "service.job_request", []*http.Request{
		httptest.NewRequest(http.MethodGet, "/v1/jobs/"+jr.id+"/results?page=0&page_size=1000", nil)})
	b.jobLayers(jr.pages)
	// Per-layer build figures are the median over the run's builds.
	b.layerFromBuild(builds[0])
	stage := map[string][]float64{}
	var read []float64
	for _, bl := range builds {
		read = append(read, bl.read.Seconds())
		for _, st := range bl.res.Stages {
			stage[string(st.Stage)] = append(stage[string(st.Stage)], st.Duration.Seconds())
		}
	}
	b.layer["corpus.read_s"] = median(read)
	for name, secs := range stage {
		b.layer["pipeline."+name+"_s"] = median(secs)
	}
	return b.replayStatsWrites(in.corpus, pattern.All())
}
